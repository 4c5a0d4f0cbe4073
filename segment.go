package mirage

import (
	"fmt"
	"sync"
	"sync/atomic"
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
type Segment struct {
	site     *Site
	seg      *mem.Segment
	pages    core.Mapping // the site's page table for seg: the access check
	readonly bool
	record   bool // Options.Check: emit an op record per access
	pid      int32

	detached atomic.Bool

	faultLat *obs.Hist // fault_latency_ns, fed by faultIn; nil without metrics
}

// Size returns the segment size in bytes.
func (g *Segment) Size() int { return g.seg.Size }

// ID returns the segment id.
func (g *Segment) ID() SegID { return g.seg.ID }

// PageSize returns the coherence unit.
func (g *Segment) PageSize() int { return g.seg.PageSize }

// Detach unmaps the segment (System V shmdt). The cluster-wide last
// detach destroys the segment.
func (g *Segment) Detach() error {
	if !g.detached.CompareAndSwap(false, true) {
		return ErrDetached
	}
	return g.site.detach(g.seg.ID)
}

// access runs fn over each page-aligned chunk of [off, off+n) with the
// page held in the needed mode. It is the paper's loop (§6.1): try the
// access; on a fault ask the protocol engine for the page, sleep until
// the page's state changed, and retry. fn runs here, on the caller's
// goroutine, with the page held (DESIGN.md §17): against every other
// access to that page at this site readers share and a writer
// excludes, and the engine cannot take the page away before fn and the
// op record are done. A resident access never enters the actor loop;
// after one to a page under a time window the caller waits for the
// loop's turn (turn).
func (g *Segment) access(off, n int, write bool, fn func(frame []byte, frameOff, bufOff, k int)) error {
	if g.detached.Load() {
		return ErrDetached
	}
	if write && g.readonly {
		return ErrReadOnly
	}
	if off < 0 || n < 0 || off+n > g.seg.Size {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrBounds, off, off+n, g.seg.Size)
	}
	ps := g.seg.PageSize
	bufOff := 0
	var wk *waker // taken by the first fault or turn, shared by the rest
	for n > 0 {
		page := off / ps
		fo := off % ps
		k := ps - fo
		if k > n {
			k = n
		}
		frame, ok := g.pages.Hold(page, write)
		if !ok {
			var err error
			if frame, err = g.faultIn(page, write, takeWaker(&wk)); err != nil {
				wakers.Put(wk)
				return err
			}
		}
		fn(frame, fo, bufOff, k)
		if g.record {
			g.pages.RecordOp(int32(page), fo, write, frame[fo:fo+k])
		}
		if g.pages.Unhold(page, write) {
			g.turn(takeWaker(&wk))
		}
		off += k
		bufOff += k
		n -= k
	}
	if wk != nil {
		wakers.Put(wk)
	}
	return nil
}

// waker is what an access sleeps on: a one-slot channel, and the wake
// function the engine keeps while a fault is outstanding. Every fault
// or turn the loop accepts is answered on ch once — the engine calls a
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

// signal answers a fault. It runs on the actor loop, which must never
// block: were the slot taken, the accessor is about to retry anyway.
func (w *waker) signal(err error) {
	select {
	case w.ch <- err:
	default:
	}
}

// takeWaker returns the access's waker, from the pool the first time.
func takeWaker(wk **waker) *waker {
	if *wk == nil {
		*wk = wakers.Get().(*waker)
	}
	return *wk
}

// turn follows an access to a page under a time window (Δ > 0): the
// caller, holding nothing, sleeps until the site's actor loop has
// worked off what was queued before it. A window is granted where
// sites compete for a page, and there the loop's turn is what every
// access gave before the check left the loop: the accessor is off the
// processor for a moment, so the loop, the timers and the network
// poller run even where accessors that never fault fill every
// processor, and an invalidation that has arrived is served before the
// accesses that follow it. Pages without a window never come here
// (DESIGN.md §17 says what that costs and what it leaves open).
func (g *Segment) turn(wk *waker) {
	if g.site.node.post(wk.wake) {
		<-wk.ch
	}
}

// faultIn is the slow path of access, entered when the check refused:
// fault and retry until the page is held. With metrics on, the whole of
// it — retries included, as the simulator's access layer measures it —
// is one fault_latency_ns sample; a resident access never comes here and
// never reads the clock.
func (g *Segment) faultIn(page int, write bool, wk *waker) ([]byte, error) {
	var began time.Time
	if g.faultLat != nil {
		began = time.Now()
	}
	for {
		if err := g.fault(int32(page), write, wk); err != nil {
			return nil, err
		}
		if frame, ok := g.pages.Hold(page, write); ok {
			if g.faultLat != nil {
				g.faultLat.Observe(int64(time.Since(began)))
			}
			return frame, nil
		}
	}
}

// fault is one round of the slow path: it reports the fault to the engine
// on the actor loop and returns once the page's state at this site has
// changed (or already permits the access), for the caller to retry.
func (g *Segment) fault(page int32, write bool, wk *waker) error {
	if g.seg.Removed() {
		return ErrDetached
	}
	nd := g.site.node
	segID := int32(g.seg.ID)
	ok := nd.post(func() {
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
		nd.eng.Fault(segID, page, write, g.pid, wk.wake)
	})
	if !ok {
		return ErrDetached
	}
	return <-wk.ch
}

// ReadAt copies len(b) bytes from the segment at off into b,
// coherently: the bytes reflect the latest completed writes anywhere
// in the cluster.
func (g *Segment) ReadAt(b []byte, off int) error {
	return g.access(off, len(b), false, func(frame []byte, fo, bo, k int) {
		copy(b[bo:bo+k], frame[fo:fo+k])
	})
}

// WriteAt copies b into the segment at off.
func (g *Segment) WriteAt(b []byte, off int) error {
	return g.access(off, len(b), true, func(frame []byte, fo, bo, k int) {
		copy(frame[fo:fo+k], b[bo:bo+k])
	})
}

// Uint32 reads a 32-bit little-endian word.
func (g *Segment) Uint32(off int) (uint32, error) {
	var v uint32
	err := g.access(off, 4, false, func(frame []byte, fo, bo, k int) {
		for i := 0; i < k; i++ {
			v |= uint32(frame[fo+i]) << (8 * uint(bo+i))
		}
	})
	return v, err
}

// SetUint32 writes a 32-bit little-endian word.
func (g *Segment) SetUint32(off int, v uint32) error {
	return g.access(off, 4, true, func(frame []byte, fo, bo, k int) {
		for i := 0; i < k; i++ {
			frame[fo+i] = byte(v >> (8 * uint(bo+i)))
		}
	})
}

// AddUint32 atomically (with respect to the page's single-writer
// protocol state) adds delta to the word at off and returns the new
// value. The word must not span pages.
func (g *Segment) AddUint32(off int, delta uint32) (uint32, error) {
	var out uint32
	crosses := false
	err := g.access(off, 4, true, func(frame []byte, fo, bo, k int) {
		if k != 4 {
			crosses = true // said below: nothing may panic holding a page
			return
		}
		v := uint32(frame[fo]) | uint32(frame[fo+1])<<8 | uint32(frame[fo+2])<<16 | uint32(frame[fo+3])<<24
		v += delta
		frame[fo] = byte(v)
		frame[fo+1] = byte(v >> 8)
		frame[fo+2] = byte(v >> 16)
		frame[fo+3] = byte(v >> 24)
		out = v
	})
	if crosses {
		panic("mirage: AddUint32 across a page boundary")
	}
	return out, err
}

// TestAndSet sets the byte at off to 1 under write access and returns
// its previous value: the interlocked instruction §7.2 studies (and
// recommends against for cross-site spinlocks).
func (g *Segment) TestAndSet(off int) (old byte, err error) {
	err = g.access(off, 1, true, func(frame []byte, fo, bo, k int) {
		old = frame[fo]
		frame[fo] = 1
	})
	return old, err
}

// Clear zeroes the byte at off under write access (spinlock release).
func (g *Segment) Clear(off int) error {
	return g.access(off, 1, true, func(frame []byte, fo, bo, k int) {
		frame[fo] = 0
	})
}
