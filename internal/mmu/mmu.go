// Package mmu models the memory-management hardware and kernel tables
// Mirage layers its protocol on (paper §6.2).
//
// For each shared segment a site keeps:
//
//   - a master page-table: one PTE per page with a valid bit and a
//     protection bit (read-only or read-write), exactly the state the
//     VAX hardware consults. The PTE is one atomic word, so a live
//     accessor checks it — and holds the page for the length of the
//     access — on its own goroutine (pte.go, DESIGN.md §17);
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

// Seg is the per-site MMU state for one segment. Everything but Hold
// and Unhold belongs to the one goroutine that drives the site's
// protocol engine; pte.go says what that goroutine and a holder may
// each assume of the other.
type Seg struct {
	pageSize int
	pages    []page
}

// page is what an accessor and the hardware see of a page: the pte
// word, the frame and the paper's auxiliary entry (Table 2). What the
// site's engine tracks for a page in flight is core.sitePage, what the
// library owns core.libPage; DESIGN.md §19 has the three side by side.
// The struct is also what keeps accessors of different pages off each
// other's cache lines — it is longer than a line, so no two pte words
// share one.
type page struct {
	pte
	frame []byte // changes only with the page taken exclusively
	aux   AuxPTE
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
func (s *Seg) Prot(p int) Prot { return Prot(s.pages[p].Load() & protMask) }

// Aux returns a pointer to page p's auxpte for inspection or update.
// The window is set with SetWindow.
func (s *Seg) Aux(p int) *AuxPTE { return &s.pages[p].aux }

// SetWindow records the time window Δ this site was given page p for,
// and says in the page's word whether there is one, for Unhold to
// report.
func (s *Seg) SetWindow(p int, d time.Duration) {
	pg := &s.pages[p]
	pg.aux.Window = d
	var bit uint32
	if d > 0 {
		bit = windowBit
	}
	pg.change(windowBit, bit)
}

// Check classifies an access against the master page table without
// performing it. Every page of a closed segment faults.
func (s *Seg) Check(p int, write bool) FaultType {
	switch {
	case permits(s.pages[p].Load(), write):
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
func (s *Seg) Frame(p int) []byte { return s.pages[p].frame }

// Install maps page p at this site with protection prot and contents
// data (copied; nil means zero-filled), recording the install time for
// the Δ clock check. Installing with Invalid protection is a model bug.
// The new protection becomes visible to holders only when Install
// returns, so an event a caller emits first precedes every access the
// install enables.
func (s *Seg) Install(p int, data []byte, prot Prot, now time.Duration) {
	if prot == Invalid {
		panic("mmu: Install with Invalid protection")
	}
	if data != nil && len(data) != s.pageSize {
		panic(fmt.Sprintf("mmu: install %d bytes into %d-byte page", len(data), s.pageSize))
	}
	pg := s.lock(p)
	if pg.frame == nil {
		pg.frame = make([]byte, s.pageSize)
	}
	if data != nil {
		copy(pg.frame, data)
	} else {
		for i := range pg.frame {
			pg.frame[i] = 0
		}
	}
	pg.aux.InstallTime = now
	pg.unlock(prot)
}

// Invalidate unmaps page p and discards the frame. It returns the old
// contents so a caller forwarding the page (invalidated writer sending
// its data to the new writer) can use them without an extra copy: it
// returns only once no holder is left, and none can follow.
func (s *Seg) Invalidate(p int) []byte {
	pg := &s.pages[p]
	if mutateSkipHolderWait {
		// Overtake the holders. They are left a frame of zeroes rather
		// than none, so that the checker fails them, not a nil index.
		f := pg.frame
		pg.frame = make([]byte, s.pageSize)
		pg.change(protMask, uint32(Invalid))
		return f
	}
	s.lock(p)
	f := pg.frame
	pg.frame = nil
	pg.unlock(Invalid)
	return f
}

// Downgrade reduces a read-write page to read-only, retaining the
// frame (optimization 2, §6.1). Downgrading a non-writable page is a
// protocol bug and panics. On return no write holder is left.
func (s *Seg) Downgrade(p int, now time.Duration) {
	if s.Prot(p) != ReadWrite {
		panic(fmt.Sprintf("mmu: downgrade of %v page %d", s.Prot(p), p))
	}
	pg := s.lock(p)
	pg.aux.InstallTime = now
	pg.unlock(ReadOnly)
}

// Upgrade raises a read-only page to read-write in place (optimization
// 1: a reader becoming writer receives no page copy). Upgrading a page
// that is not read-only panics.
func (s *Seg) Upgrade(p int, now time.Duration) {
	if s.Prot(p) != ReadOnly {
		panic(fmt.Sprintf("mmu: upgrade of %v page %d", s.Prot(p), p))
	}
	s.pages[p].aux.InstallTime = now
	s.pages[p].change(protMask, uint32(ReadWrite))
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
