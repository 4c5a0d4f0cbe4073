package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"mirage/internal/mmu"
)

// Errors returned by the accessors of an attached segment.
var (
	ErrDetached = errors.New("mem: segment detached")
	ErrBounds   = errors.New("mem: access outside segment")
	ErrReadOnly = errors.New("mem: write to read-only attach")
)

// SlowPath is the part of an access that a live site and a simulated
// one do differently (DESIGN.md §17). An access to a resident page
// without a time window calls none of it, unless op records are on.
type SlowPath interface {
	// Fault is called when the check refused the access: report the
	// fault to the protocol engine, sleep until the page's state at this
	// site changed, and try the hold again, until the page is held. An
	// error ends the access; a destroyed segment is ErrDetached.
	Fault(page int, write bool, w Waiter) ([]byte, Waiter, error)
	// Turn is called, with nothing held, after an access to a page under
	// a time window.
	Turn(w Waiter) Waiter
	// RecordOp notes the bytes an access read or wrote for the coherence
	// checker. It is called with the page still held, which is what
	// places the record in the trace between the grant that let the
	// access in and the revocation that ends it; it must not block.
	RecordOp(page, off int, write bool, b []byte)
}

// Waiter is what one access sleeps on. Fault and Turn are handed the
// access's Waiter — nil until one of them returns one — so that an
// access which leaves the fast path several times takes one; it is
// released when the access ends.
type Waiter interface{ Release() }

// Accessor is the access surface of one attach: the typed accessors,
// their argument checks and the page loop, once for every kind of
// site. mirage.Segment and ipc.Shm embed it, so its exported methods are
// theirs: it has the seven accessors and no other (NewAccessor and
// Detach are functions for that reason). It is safe for concurrent use
// if its SlowPath is.
type Accessor struct {
	size, pageSize int
	pages          *mmu.Seg
	slow           SlowPath
	readonly       bool
	record         bool
	detached       atomic.Bool
}

// NewAccessor returns the accessors of an attach of seg at the site
// whose page table for it is pages. record turns the op records on.
func NewAccessor(seg *Segment, pages *mmu.Seg, slow SlowPath, readonly, record bool) Accessor {
	return Accessor{size: seg.Size, pageSize: seg.PageSize, pages: pages,
		slow: slow, readonly: readonly, record: record}
}

// Detach ends the attach: every later access is ErrDetached. It
// reports whether this call did it, which a second one does not.
func Detach(a *Accessor) bool { return a.detached.CompareAndSwap(false, true) }

// access runs fn over each page-aligned chunk of [off, off+n) with the
// page held in the needed mode. It is the paper's loop (§6.1): try the
// access; on a fault ask the protocol for the page, sleep until the
// page's state changed, and retry. fn runs with the page held: against
// every other access to that page at this site readers share and a
// writer excludes, and the engine cannot take the page away before fn
// and the op record are done. Nothing between Hold and Unhold may block
// or panic — in the simulator a page held across a task switch would
// stop the kernel's only thread at the next transition.
func (a *Accessor) access(off, n int, write bool, fn func(frame []byte, frameOff, bufOff, k int)) error {
	if a.detached.Load() {
		return ErrDetached
	}
	if write && a.readonly {
		return ErrReadOnly
	}
	if off < 0 || n < 0 || off+n > a.size {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrBounds, off, off+n, a.size)
	}
	ps := a.pageSize
	bufOff := 0
	var w Waiter // taken by the first Fault or Turn, shared by the rest
	for n > 0 {
		page := off / ps
		fo := off % ps
		k := ps - fo
		if k > n {
			k = n
		}
		frame, ok := a.pages.Hold(page, write)
		if !ok {
			var err error
			if frame, w, err = a.slow.Fault(page, write, w); err != nil {
				release(w)
				return err
			}
		}
		fn(frame, fo, bufOff, k)
		if a.record {
			a.slow.RecordOp(page, fo, write, frame[fo:fo+k])
		}
		if a.pages.Unhold(page, write) {
			w = a.slow.Turn(w)
		}
		off += k
		bufOff += k
		n -= k
	}
	release(w)
	return nil
}

// release ends the access of w, if it took one.
func release(w Waiter) {
	if w != nil {
		w.Release()
	}
}

// ReadAt copies len(b) bytes from the segment at off into b,
// coherently: the bytes reflect the latest completed writes anywhere
// in the cluster.
func (a *Accessor) ReadAt(b []byte, off int) error {
	return a.access(off, len(b), false, func(frame []byte, fo, bo, k int) {
		copy(b[bo:bo+k], frame[fo:fo+k])
	})
}

// WriteAt copies b into the segment at off.
func (a *Accessor) WriteAt(b []byte, off int) error {
	return a.access(off, len(b), true, func(frame []byte, fo, bo, k int) {
		copy(frame[fo:fo+k], b[bo:bo+k])
	})
}

// Uint32 reads a 32-bit little-endian word (the VAX byte order).
func (a *Accessor) Uint32(off int) (uint32, error) {
	var v uint32
	err := a.access(off, 4, false, func(frame []byte, fo, bo, k int) {
		for i := 0; i < k; i++ {
			v |= uint32(frame[fo+i]) << (8 * uint(bo+i))
		}
	})
	return v, err
}

// SetUint32 writes a 32-bit little-endian word.
func (a *Accessor) SetUint32(off int, v uint32) error {
	return a.access(off, 4, true, func(frame []byte, fo, bo, k int) {
		for i := 0; i < k; i++ {
			frame[fo+i] = byte(v >> (8 * uint(bo+i)))
		}
	})
}

// AddUint32 atomically (with respect to the page's single-writer
// protocol state) adds delta to the word at off and returns the new
// value — a read-modify-write like the VAX decrement instruction, whose
// faulting access is a write fault. The word must not span pages.
func (a *Accessor) AddUint32(off int, delta uint32) (uint32, error) {
	var out uint32
	crosses := false
	err := a.access(off, 4, true, func(frame []byte, fo, bo, k int) {
		if k != 4 {
			crosses = true // said below: nothing may panic holding a page
			return
		}
		out = binary.LittleEndian.Uint32(frame[fo:]) + delta
		binary.LittleEndian.PutUint32(frame[fo:], out)
	})
	if crosses {
		panic("mem: AddUint32 across a page boundary")
	}
	return out, err
}

// TestAndSet sets the byte at off to 1 under write access and returns
// its previous value: the VAX interlocked instruction §7.2 studies (and
// recommends against for cross-site spinlocks).
func (a *Accessor) TestAndSet(off int) (old byte, err error) {
	err = a.access(off, 1, true, func(frame []byte, fo, bo, k int) {
		old = frame[fo]
		frame[fo] = 1
	})
	return old, err
}

// Clear zeroes the byte at off under write access (spinlock release).
func (a *Accessor) Clear(off int) error {
	return a.access(off, 1, true, func(frame []byte, fo, bo, k int) {
		frame[fo] = 0
	})
}
