package mmu

import (
	"runtime"
	"unsafe"
)

// pte is one master page-table entry and the frame it maps: the
// protection the hardware would consult, packed with what stands in for
// the one thing real hardware gives for free — an access in flight
// completes before the kernel can take the page away (DESIGN.md §17).
//
//	bits 0-1   Prot
//	bit  2     closed: the segment is releasing or destroyed here; every access faults
//	bit  3     taken exclusively: by a write, a read that is not optimistic, or a transition
//	bit  4     a transition is waiting for the holder to leave; no new hold
//	bit  5     windowed: the page's time window Δ is not zero (SetWindow)
//	bits 32-63 version: one more at the end of every exclusive section
//	           that may have changed the page (a write's Unhold, a
//	           transition's unlock)
//
// A read writes nothing. It loads the word, loads the frame and copies
// the bytes, loads the word again, and keeps the bytes only if the word
// is what it was and showed no exclusive holder (Snap, Settled): no
// section that can change the bytes overlapped the copy. The word
// cannot come back to what it was inside one read: that would take 2^32
// versions during it. A read that fails the check takes the page
// exclusively, like a write.
//
// Who may change it: an accessor only ever takes the page exclusively
// and gives it back (Hold, Unhold), on any goroutine; everything else
// belongs to the goroutine that drives the site's engine, and every
// change it makes is a transition: it takes the page exclusively (lock),
// so it begins with every earlier holder gone and none under way, and
// gives it back with one more version (unlock). The frame pointer
// changes only in a transition, and a frame's bytes only under an
// exclusive hold; an optimistic reader loads the pointer without one,
// so a frame is never resized, and a frame that leaves the page is
// never written again by the page's holders.
//
// The word and the frame pointer are sync/atomic's types (model_off.go);
// the word model puts in its own, which schedule each operation.
type pte struct {
	word  atomicWord
	frame atomicFrame // the first byte of a Seg.pageSize frame, or nil
}

const (
	protMask  = 3
	closedBit = 1 << 2
	exclBit   = 1 << 3
	waitBit   = 1 << 4
	windowBit = 1 << 5
	verOne    = 1 << 32
)

// permits reports whether word w lets an access of the given kind
// through: the page is open and its protection suffices.
func permits(w uint64, write bool) bool {
	if write {
		return w&(closedBit|protMask) == uint64(ReadWrite)
	}
	return w&closedBit == 0 && w&protMask != uint64(Invalid)
}

// spinsBeforeYield is how often a waiter re-reads a busy word before
// it starts yielding the processor. Holds last tens of nanoseconds,
// so the wait is normally over within a few reads; yielding matters
// when the holder was descheduled, or shares the only processor.
const spinsBeforeYield = 32

// A Snap is the page word an optimistic read began under (Seg.Snap).
type Snap uint64

// Windowed reports whether the page the snap was taken of is under a
// time window (SetWindow).
func (at Snap) Windowed() bool { return at&windowBit != 0 }

// Snap begins an optimistic read of page p: if the word permits a read
// and nobody holds the page exclusively, it returns the frame and the
// word. The caller copies its bytes out and keeps them only if
// Settled(p, at) says the page did not change meanwhile; on ok false or
// a failed Settled it reads under Hold. Nothing is written, so any
// number of readers on any goroutines share the page's cache line.
// Reads that are recorded (Options.Check), and every read of a -race
// build or of a platform whose loads may pass the validating load, take
// the page with Hold: Snap refuses them all (optimisticReads).
func (s *Seg) Snap(p int) (frame []byte, at Snap, ok bool) {
	e := &s.pages[p].pte
	w := e.word.Load()
	f := e.frame.Load() // nil if invalidated since: Settled would refuse
	if !optimisticReads || !permits(w, false) || w&exclBit != 0 || f == nil {
		return nil, 0, false
	}
	return unsafe.Slice(f, s.pageSize), Snap(w), true
}

// Settled ends an optimistic read of page p begun by Snap: it reports
// whether the bytes copied since are the page's — the word is still
// the one the snap saw, so no exclusive section began since.
func (s *Seg) Settled(p int, at Snap) bool {
	w := s.pages[p].word.Load()
	return w == uint64(at) || MutateAcceptMovedVersion && uint32(w) == uint32(at)
}

// Hold is the access check for an access that is not an optimistic
// read: if page p permits the access it takes the page exclusively and
// returns the frame; the caller moves its bytes and calls Unhold,
// without blocking in between. ok false is a fault: the caller asks
// the engine for the page and tries again. Safe on any goroutine.
func (s *Seg) Hold(p int, write bool) (frame []byte, ok bool) {
	e := &s.pages[p].pte
	if _, ok = e.take(write, false); ok {
		frame = unsafe.Slice(e.frame.Load(), s.pageSize)
	}
	return frame, ok
}

// take takes the page exclusively and returns the word it left there.
// An access (transition false) gives up, ok false, while the word does
// not permit it, and does not take a page that shows the waiting bit: a
// waiting transition goes before every hold that had not got in when
// it set the bit, so holds that keep coming cannot keep it out. A
// transition sets the bit while the page is held and waits.
func (e *pte) take(write, transition bool) (taken uint64, ok bool) {
	for spins := 0; ; spins++ {
		w := e.word.Load()
		switch {
		case !transition && !permits(w, write):
			return 0, false
		case w&exclBit == 0 && (transition || w&waitBit == 0):
			if taken = (w | exclBit) &^ waitBit; e.word.CompareAndSwap(w, taken) {
				return taken, true
			}
			continue
		case transition && w&waitBit == 0:
			e.word.CompareAndSwap(w, w|waitBit)
			continue
		}
		e.waiting(w)
		if spins >= spinsBeforeYield {
			runtime.Gosched()
		}
	}
}

// Unhold ends the access a successful Hold began; a write's ends with
// one more version, which fails the optimistic reads it overlapped. It
// reports whether the page is under a time window (SetWindow), which
// costs the accessor nothing to learn: the word comes back from the
// addition.
func (s *Seg) Unhold(p int, write bool) (windowed bool) {
	d := ^uint64(exclBit - 1) // minus the exclusive bit
	if write {
		d += verOne
	}
	return s.pages[p].word.Add(d)&windowBit != 0
}

// lock takes page p exclusively for a transition: it stops new holds,
// waits for the present one to end, and returns owning the page, with
// the word it left there.
func (s *Seg) lock(p int) (*page, uint64) {
	w, _ := s.pages[p].take(false, true)
	return &s.pages[p], w
}

// unlock ends a transition's exclusive section, which lock began
// leaving word w: it replaces the bits of clear with those of set,
// gives the page up and moves the version. Nobody else writes the word
// of a page a transition holds — a hold waits, and transitions run on
// one goroutine — so the word is still w and the swap cannot fail.
func (e *pte) unlock(w, clear, set uint64) {
	e.word.CompareAndSwap(w, (w&^(clear|exclBit)|set)+verOne)
}

// Close makes every access to the segment fault, whatever the pages'
// protection, until Open: the state of a segment between its last
// local detach and the library's confirmation, and of a destroyed one.
// On return no access is under way and no read begun before will be
// kept, so the caller may read any frame.
func (s *Seg) Close() {
	for p := range s.pages {
		pg, w := s.lock(p)
		pg.unlock(w, 0, closedBit)
	}
}

// Open ends Close: accesses again go by each page's protection.
func (s *Seg) Open() {
	for p := range s.pages {
		pg, w := s.lock(p)
		pg.unlock(w, closedBit, 0)
	}
}

// Closed reports whether the segment is closed. Close and Open change
// every page on the one goroutine that may ask, so any page answers.
func (s *Seg) Closed() bool { return s.pages[0].word.Load()&closedBit != 0 }

// Idle reports whether page p's word shows no access and no transition:
// not taken exclusively, nobody waiting. Every page is idle whenever no
// access or transition is under way; one that is not is a hold that was
// never given back, and the next transition of the page will wait for
// it for ever.
func (s *Seg) Idle(p int) bool { return s.pages[p].word.Load()&(exclBit|waitBit) == 0 }
