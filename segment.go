package mirage

import (
	"sync"
	"time"

	"mirage/internal/core"
	"mirage/internal/mem"
	"mirage/internal/mmu"
	"mirage/internal/obs"
)

// Segment is one attach of a shared segment at a site: the handle
// through which processes read and write coherently shared memory.
// Handles are safe for concurrent use by multiple goroutines (they
// model colocated processes sharing the site's page frames).
//
// The accessors and the page loop are mem.Accessor's, the ones a
// simulated process uses. A resident access checks and holds its page
// there, on the caller's goroutine, and never takes the site's turn
// (DESIGN.md §17); slow is what a live site adds.
type Segment struct {
	mem.Accessor
	slow liveSlowPath
}

// Size returns the segment size in bytes.
func (g *Segment) Size() int { return g.slow.seg.Size }

// ID returns the segment id.
func (g *Segment) ID() SegID { return g.slow.seg.ID }

// PageSize returns the coherence unit.
func (g *Segment) PageSize() int { return g.slow.seg.PageSize }

// Detach unmaps the segment (System V shmdt). The cluster-wide last
// detach destroys the segment.
func (g *Segment) Detach() error {
	if !mem.Detach(&g.Accessor) {
		return ErrDetached
	}
	return g.slow.site.detach(g.slow.seg.ID)
}

// liveSlowPath is what an access at a live site does off the fast path
// (mem.SlowPath): it runs the fault as a step of the site and sleeps on
// a pooled waker, and after an access to a page under a time window it
// waits for the loop's turn.
type liveSlowPath struct {
	site  *Site
	seg   *mem.Segment
	pages core.Mapping // the site's page table for seg, and its op records
	pid   int32

	faultLat *obs.Hist // fault_latency_ns, fed by Fault; nil without metrics
}

// waker is what an access sleeps on: a one-slot channel, and the wake
// function the engine keeps while a fault is outstanding. Every fault
// or turn the site accepts is answered on ch once — the engine calls a
// waiter's wake once — and waited for by its accessor, so a waker goes
// back to the pool with its slot empty. The pool is worth
// three allocations a fault (a channel of errors is two) and 2.4–3.1 %
// of a fault-inproc op's p50, on 9 of 10 pairs with and without it
// (hypotheses/e24-access-check/FINDINGS.md).
type waker struct {
	ch   chan error
	wake func() // signal(nil), made once with the channel
}

var wakers = sync.Pool{New: func() any {
	w := &waker{ch: make(chan error, 1)}
	w.wake = func() { w.signal(nil) }
	return w
}}

// signal answers a fault. It runs in a step, which must never block:
// were the slot taken, the accessor is about to retry anyway.
func (w *waker) signal(err error) {
	select {
	case w.ch <- err:
	default:
	}
}

// Release ends the access that took the waker (mem.Waiter).
func (w *waker) Release() { wakers.Put(w) }

// takeWaker returns the access's waker, from the pool the first time.
func takeWaker(w mem.Waiter) *waker {
	if w == nil {
		return wakers.Get().(*waker)
	}
	return w.(*waker)
}

// Turn follows an access to a page under a time window (Δ > 0): the
// caller, holding nothing, sleeps until the site has worked off what
// was queued before it. Unlike a fault it never takes the site's turn
// itself, idle or not: it queues its wake and sleeps. A window is
// granted where sites compete for a page, and there the turn is what
// every access gave before the check left the loop: the accessor is off
// the processor for a moment, so the loop, the timers and the network
// poller run even where accessors that never fault fill every
// processor, and an invalidation that has arrived is served before the
// accesses that follow it. Pages without a window never come here
// (DESIGN.md §17 says what that costs and what it leaves open).
func (s *liveSlowPath) Turn(w mem.Waiter) mem.Waiter {
	wk := takeWaker(w)
	if s.site.node.queue(loopItem{fn: wk.wake}) {
		<-wk.ch
	}
	return wk
}

// Fault is entered when the check refused: fault and retry until the
// page is held. With metrics on, the whole of it — retries included, as
// the simulator measures it — is one fault_latency_ns sample; a resident
// access never comes here and never reads the clock.
func (s *liveSlowPath) Fault(page int, write bool, w mem.Waiter) ([]byte, mem.Waiter, error) {
	wk := takeWaker(w)
	var began time.Time
	if s.faultLat != nil {
		began = time.Now()
	}
	for {
		if err := s.fault(int32(page), write, wk); err != nil {
			return nil, wk, err
		}
		if frame, ok := s.pages.Seg().Hold(page, write); ok {
			if s.faultLat != nil {
				s.faultLat.Observe(int64(time.Since(began)))
			}
			return frame, wk, nil
		}
	}
}

// fault is one round of Fault: it reports the fault to the engine as a
// step — on this goroutine when the site is idle, so an idle site costs
// the fault no wake — and returns once the page's state at this site
// has changed (or already permits the access), for the caller to retry.
// In process the whole fault may run before the step returns: the
// request, the library's answer and the install are steps of sites this
// goroutine finds idle or already holds, and the wake is then a send on
// a channel nobody waits on yet.
func (s *liveSlowPath) fault(page int32, write bool, wk *waker) error {
	if s.seg.Removed() {
		return ErrDetached
	}
	nd := s.site.node
	segID := int32(s.seg.ID)
	ok := nd.run(loopItem{fn: func() {
		if err := nd.eng.FaultError(segID, page); err != nil {
			// A previous fault on this page was degraded (peer
			// unreachable past the retry budget). Surface it instead of
			// refaulting into the same partition.
			wk.signal(err)
			return
		}
		if nd.eng.CheckAccess(segID, page, write) == mmu.NoFault {
			wk.signal(nil) // the page arrived between the check and here
			return
		}
		nd.eng.Fault(segID, page, write, s.pid, wk.wake)
	}})
	if !ok {
		return ErrDetached
	}
	return <-wk.ch
}

// RecordOp emits the access's op record (Options.Check).
func (s *liveSlowPath) RecordOp(page, off int, write bool, b []byte) {
	s.pages.RecordOp(int32(page), off, write, b)
}
