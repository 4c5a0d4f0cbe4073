// Package mmu models the memory-management hardware and kernel tables
// Mirage layers its protocol on (paper §6.2).
//
// For each shared segment a site keeps:
//
//   - a master page-table: one PTE per page with a valid bit and a
//     protection bit (read-only or read-write), exactly the state the
//     VAX hardware consults. The PTE is one atomic word, so a live
//     accessor checks it on its own goroutine — a read writes nothing,
//     a write holds the page for the length of the access (pte.go,
//     DESIGN.md §17);
//   - an auxiliary parallel page table (auxpte, Table 2): per page,
//     the reader mask, the page's time window in ticks (Δ), and the
//     installation time at this site (the writer is the protection: this
//     site if the page is ReadWrite; the library's record names it);
//   - the page frames themselves, for pages present at the site.
//
// Processes attach segments into address spaces managed by the ipc
// package. In the paper each attached process carries a copy of the
// master PTEs, refreshed lazily at dispatch (§6.2); here no such copy
// exists. Every access checks the master table itself, and the
// refresh survives only as a cost: ipc sets a process's RemapPages to
// the page count of its attached segments, and the sched layer charges
// that many remaps at each dispatch.
package mmu

import (
	"fmt"
	"time"
	"unsafe"
)

// Prot is a page protection level.
type Prot uint8

const (
	// Invalid marks a page not present at this site.
	Invalid Prot = iota
	// ReadOnly marks a readable copy.
	ReadOnly
	// ReadWrite marks the (single) writable copy.
	ReadWrite
)

func (p Prot) String() string {
	switch p {
	case Invalid:
		return "invalid"
	case ReadOnly:
		return "read-only"
	case ReadWrite:
		return "read-write"
	}
	return fmt.Sprintf("Prot(%d)", uint8(p))
}

// FaultType classifies a page fault, which the VAX reports (and the
// modified Locus interrupt service routine passes through, §6.2).
type FaultType uint8

const (
	// NoFault means the access is permitted by the current PTE.
	NoFault FaultType = iota
	// ReadFault is an access to a page not present at the site.
	ReadFault
	// WriteFault is a write to a page that is absent or read-only.
	WriteFault
)

func (f FaultType) String() string {
	switch f {
	case NoFault:
		return "none"
	case ReadFault:
		return "read-fault"
	case WriteFault:
		return "write-fault"
	}
	return fmt.Sprintf("FaultType(%d)", uint8(f))
}

// AuxPTE is one auxiliary parallel page table entry (paper Table 2).
type AuxPTE struct {
	ReaderMask  Copyset       // set of sites using this page
	Window      time.Duration // Δ allocated for this page ("window ticks")
	InstallTime time.Duration // installation time of this page at this site
}

// NoWriter is the library record's writer when no site holds a
// writable copy.
const NoWriter = -1

// Seg is the per-site MMU state for one segment. Everything but Snap,
// Settled, Hold and Unhold belongs to the one goroutine that drives the
// site's protocol engine; pte.go says what that goroutine and an
// accessor may each assume of the other.
type Seg struct {
	pageSize int
	pages    []page
}

// page is what an accessor and the hardware see of a page: the pte
// word, the frame pointer and the paper's auxiliary entry (Table 2).
// What the site's engine tracks for a page in flight is core.sitePage,
// what the library owns core.libPage; DESIGN.md §19 has the three side
// by side. The struct is 64 bytes, a cache line: in a line-aligned
// slice of pages no two pte words share one, so accessors of different
// pages never contend.
type page struct {
	pte
	aux AuxPTE
}

// NewSeg creates MMU state for a segment of npages pages.
func NewSeg(npages, pageSize int) *Seg {
	if npages <= 0 || pageSize <= 0 {
		panic(fmt.Sprintf("mmu: bad geometry %d x %d", npages, pageSize))
	}
	return &Seg{pageSize: pageSize, pages: make([]page, npages)}
}

// Pages returns the number of pages.
func (s *Seg) Pages() int { return len(s.pages) }

// PageSize returns the page size in bytes.
func (s *Seg) PageSize() int { return s.pageSize }

// Prot returns the current protection of page p.
func (s *Seg) Prot(p int) Prot { return Prot(s.pages[p].word.Load() & protMask) }

// Aux returns a pointer to page p's auxpte for inspection or update.
// The window is set with SetWindow.
func (s *Seg) Aux(p int) *AuxPTE { return &s.pages[p].aux }

// SetWindow records the time window Δ this site was given page p for,
// and says in the page's word whether there is one, for Unhold to
// report. Only a change of that bit is a transition: the engine sets
// the window on every change of a copy, mostly to what it was.
func (s *Seg) SetWindow(p int, d time.Duration) {
	var bit uint64
	if d > 0 {
		bit = windowBit
	}
	s.pages[p].aux.Window = d
	if s.pages[p].word.Load()&windowBit != bit {
		pg, w := s.lock(p)
		pg.unlock(w, windowBit, bit)
	}
}

// Check classifies an access against the master page table without
// performing it. Every page of a closed segment faults.
func (s *Seg) Check(p int, write bool) FaultType {
	switch {
	case permits(s.pages[p].word.Load(), write):
		return NoFault
	case write:
		return WriteFault
	default:
		return ReadFault
	}
}

// Frame returns the frame backing page p, or nil when the page is not
// present. Callers must respect the protection; the protocol engine is
// the only writer of invalid/RO frames.
func (s *Seg) Frame(p int) []byte { return s.frameOf(s.pages[p].frame.Load()) }

// frameOf is the frame whose first byte is f, or nil.
func (s *Seg) frameOf(f *byte) []byte {
	if f == nil {
		return nil
	}
	return unsafe.Slice(f, s.pageSize)
}

// Install maps page p at this site with protection prot and contents
// data (copied into a new frame; nil means zero-filled), recording the
// install time for the Δ clock check. Installing with Invalid
// protection is a model bug. The new protection becomes visible to
// accessors only when Install returns, so an event a caller emits first
// precedes every access the install enables. A frame is never written
// in place by a transition: a reader that loaded the old one reads
// bytes that no longer change.
func (s *Seg) Install(p int, data []byte, prot Prot, now time.Duration) {
	if prot == Invalid {
		panic("mmu: Install with Invalid protection")
	}
	if data != nil && len(data) != s.pageSize {
		panic(fmt.Sprintf("mmu: install %d bytes into %d-byte page", len(data), s.pageSize))
	}
	f := make([]byte, s.pageSize)
	copy(f, data)
	pg, w := s.lock(p)
	pg.frame.Store(&f[0])
	pg.aux.InstallTime = now
	pg.unlock(w, protMask, uint64(prot))
}

// Invalidate unmaps page p and discards the frame. It returns the old
// contents so a caller forwarding the page (invalidated writer sending
// its data to the new writer) can use them without an extra copy: it
// returns only once no holder is left, and none can follow.
func (s *Seg) Invalidate(p int) []byte {
	if MutateSkipHolderWait {
		// Overtake the holders. They are left a frame of zeroes rather
		// than none, so that the checker fails them, not a nil index;
		// the addition takes the protection away and leaves their bits.
		pg := &s.pages[p]
		f := s.frameOf(pg.frame.Load())
		pg.frame.Store(&make([]byte, s.pageSize)[0])
		pg.word.Add(-uint64(s.Prot(p)))
		return f
	}
	pg, w := s.lock(p)
	f := s.frameOf(pg.frame.Load())
	pg.frame.Store(nil)
	pg.unlock(w, protMask, uint64(Invalid))
	return f
}

// Downgrade reduces a read-write page to read-only, retaining the
// frame (optimization 2, §6.1). Downgrading a non-writable page is a
// protocol bug and panics. On return no write holder is left.
func (s *Seg) Downgrade(p int, now time.Duration) { s.reprotect(p, ReadWrite, ReadOnly, now) }

// Upgrade raises a read-only page to read-write in place (optimization
// 1: a reader becoming writer receives no page copy). Upgrading a page
// that is not read-only panics.
func (s *Seg) Upgrade(p int, now time.Duration) { s.reprotect(p, ReadOnly, ReadWrite, now) }

// reprotect changes page p's protection from from to to in one
// transition, recording now as its install time.
func (s *Seg) reprotect(p int, from, to Prot, now time.Duration) {
	pg, w := s.lock(p)
	if Prot(w&protMask) != from {
		panic(fmt.Sprintf("mmu: %v page %d made %v", Prot(w&protMask), p, to))
	}
	pg.aux.InstallTime = now
	pg.unlock(w, protMask, uint64(to))
}

// Present reports whether page p has a frame at this site.
func (s *Seg) Present(p int) bool { return s.Prot(p) != Invalid }

// WindowRemaining returns how much of page p's Δ window remains at
// time now (zero if expired).
func (s *Seg) WindowRemaining(p int, now time.Duration) time.Duration {
	a := &s.pages[p].aux
	rem := a.InstallTime + a.Window - now
	if rem < 0 {
		return 0
	}
	return rem
}
