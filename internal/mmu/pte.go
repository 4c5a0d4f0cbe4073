package mmu

import (
	"runtime"
	"sync/atomic"
)

// pte is one master page-table entry: the protection the hardware
// would consult, packed with the hold that stands in for the one thing
// real hardware gives for free — an access in flight completes before
// the kernel can take the page away (DESIGN.md §17).
//
//	bits 0-1  Prot
//	bit  2    closed: the segment is releasing or destroyed here; every access faults
//	bit  3    taken exclusively: by one write access, or by a transition
//	bit  4    a transition or a write access is waiting for the holders to leave; no new hold
//	bit  5    windowed: the page's time window Δ is not zero (SetWindow)
//	bits 6-   number of read accesses holding the page
//
// Who may change it: an accessor only ever adds or removes its own
// hold, or says that it waits for one (Hold, Unhold), on any
// goroutine; protection, closed and windowed belong to the goroutine
// that drives the site's engine. A transition that lowers access (Invalidate,
// Downgrade, Close) first takes the page exclusively, so it returns
// with every earlier access complete and none under way; one that
// raises it (Install onto an absent page, Upgrade, Open) just
// publishes the new word. A page's frame slice is written only with the
// page taken exclusively and read, off that goroutine, only under a
// hold.
type pte struct{ atomic.Uint32 }

const (
	protMask  = 3
	closedBit = 1 << 2
	exclBit   = 1 << 3
	waitBit   = 1 << 4
	windowBit = 1 << 5
	holdOne   = 1 << 6
)

// permits reports whether word w lets an access of the given kind
// through: the page is open and its protection suffices.
func permits(w uint32, write bool) bool {
	if w&closedBit != 0 {
		return false
	}
	if write {
		return Prot(w&protMask) == ReadWrite
	}
	return Prot(w&protMask) != Invalid
}

// spinsBeforeYield is how often a waiter re-reads a busy word before
// it starts yielding the processor. Holds last tens of nanoseconds,
// so the wait is normally over within a few reads; yielding matters
// when the holder was descheduled, or shares the only processor.
const spinsBeforeYield = 32

func pause(spins int) {
	if spins >= spinsBeforeYield {
		runtime.Gosched()
	}
}

// Hold is the access check: if page p permits the access it takes the
// page — shared for a read, exclusively for a write — and returns the
// frame; the caller moves its bytes and calls Unhold, without blocking
// in between. ok false is a fault: the caller asks the engine for the
// page and tries again. Safe on any goroutine.
//
// A write that finds readers on the page sets the waiting bit, as a
// transition does, so that the readers already there are the last it
// waits for. The bit says that somebody waits, not who: whoever takes
// the page clears it, and a waiter that lost puts it back. Only one
// that has set it may take a page that shows it; a write that arrives
// later queues behind, which keeps a transition from being overtaken
// for ever.
func (s *Seg) Hold(p int, write bool) (frame []byte, ok bool) {
	e := &s.pages[p]
	waiting := false // this write has set waitBit
	for spins := 0; ; spins++ {
		w := e.Load()
		if !permits(w, write) {
			return nil, false
		}
		switch {
		case w&exclBit != 0:
			// A write access or a transition owns the page, briefly.
		case !write && w&waitBit == 0:
			if e.CompareAndSwap(w, w+holdOne) {
				return e.frame, true
			}
			continue // lost a race with another reader; not a wait
		case !write:
			// Somebody waits for the readers to leave: not one more.
		case w >= holdOne && w&waitBit == 0:
			waiting = e.CompareAndSwap(w, w|waitBit) || waiting
			continue
		case w < holdOne && (w&waitBit == 0 || waiting):
			if e.CompareAndSwap(w, (w|exclBit)&^waitBit) {
				return e.frame, true
			}
			continue
		}
		pause(spins)
	}
}

// Unhold ends the access a successful Hold began. It reports whether
// the page is under a time window (SetWindow), which costs the
// accessor nothing to learn: the word comes back from the subtraction.
func (s *Seg) Unhold(p int, write bool) (windowed bool) {
	sub := ^uint32(holdOne - 1)
	if write {
		sub = ^uint32(exclBit - 1)
	}
	return s.pages[p].Add(sub)&windowBit != 0
}

// lock takes page p exclusively for a transition: it stops new holds,
// waits for the present ones to end, and returns owning the page.
func (s *Seg) lock(p int) *page {
	e := &s.pages[p]
	for spins := 0; ; spins++ {
		w := e.Load()
		switch {
		case w&exclBit == 0 && w < holdOne:
			if e.CompareAndSwap(w, (w|exclBit)&^waitBit) {
				return e
			}
			continue
		case w&waitBit == 0:
			e.CompareAndSwap(w, w|waitBit)
			continue
		}
		pause(spins)
	}
}

// change replaces the bits of clear with those of set. The engine's
// goroutine calls it on a page it owns or one only it can change.
func (e *pte) change(clear, set uint32) {
	for {
		w := e.Load()
		if e.CompareAndSwap(w, w&^clear|set) {
			return
		}
	}
}

// unlock publishes the page's new protection and gives the page up.
func (e *pte) unlock(prot Prot) { e.change(protMask|exclBit, uint32(prot)) }

// Close makes every access to the segment fault, whatever the pages'
// protection, until Open: the state of a segment between its last
// local detach and the library's confirmation, and of a destroyed one.
// On return no access is under way, so the caller may read any frame.
func (s *Seg) Close() {
	for p := range s.pages {
		s.lock(p).change(exclBit, closedBit)
	}
}

// Open ends Close: accesses again go by each page's protection.
func (s *Seg) Open() {
	for p := range s.pages {
		s.pages[p].change(closedBit, 0)
	}
}

// Closed reports whether the segment is closed. Close and Open change
// every page on the one goroutine that may ask, so any page answers.
func (s *Seg) Closed() bool { return s.pages[0].Load()&closedBit != 0 }

// Idle reports whether page p's word shows no access and no transition:
// no reader, not taken exclusively, nobody waiting. Every page is idle
// whenever no access or transition is under way; one that is not is a
// hold that was never given back, and the next transition of the page
// will wait for it for ever.
func (s *Seg) Idle(p int) bool {
	return s.pages[p].Load()&^(protMask|closedBit|windowBit) == 0
}
