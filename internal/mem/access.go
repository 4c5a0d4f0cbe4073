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
	// Turn is called, with nothing held, after every TurnEvery-th access
	// an attach makes to pages under a time window.
	Turn(w Waiter) Waiter
	// RecordOp notes the bytes an access read or wrote for the coherence
	// checker. It is called with the page still held, which is what
	// places the record in the trace between the grant that let the
	// access in and the revocation that ends it; it must not block.
	RecordOp(page, off int, write bool, b []byte)
}

// TurnEvery is how many accesses to pages under a time window an attach
// makes for each SlowPath.Turn: the 64th, the 128th, and so on. A live
// turn is a round trip to the site's loop, ≈ 0.4 µs beside a 20 ns
// resident access. Once in 64 it still puts the accessor off the
// processor every microsecond or two, which is what lets a remote
// fault's messages through; once in 256 it no longer does over TCP
// (hypotheses/e36-turn-every-64/FINDINGS.md).
const TurnEvery = 64

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
	windowed       atomic.Uint32 // accesses to windowed pages, for the turn
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

// check refuses an access of n bytes at off: a detached handle first,
// then a write through a read-only attach, then a range out of bounds.
func (a *Accessor) check(off, n int, write bool) error {
	switch {
	case a.detached.Load():
		return ErrDetached
	case write && a.readonly:
		return ErrReadOnly
	case off < 0 || n < 0 || off+n > a.size:
		return fmt.Errorf("%w: [%d,%d) of %d", ErrBounds, off, off+n, a.size)
	}
	return nil
}

// release ends the paper's loop (§6.1), which an access runs on each
// page it touches: hold (mmu.Seg.Hold, SlowPath.Fault while refused),
// load or store, release. While the page is held, readers at this site
// share it, a writer excludes the rest, the engine cannot take it, and
// nothing may block or panic (the simulator would stop). release records
// b, at fo of page, unholds, and takes every TurnEvery-th windowed turn.
func (a *Accessor) release(page, fo int, write bool, b []byte, w Waiter) Waiter {
	if a.record {
		a.slow.RecordOp(page, fo, write, b)
	}
	if a.pages.Unhold(page, write) && a.windowed.Add(1)%TurnEvery == 0 {
		w = a.slow.Turn(w)
	}
	return w
}

// done ends the access of w, if it took one.
func done(w Waiter) {
	if w != nil {
		w.Release()
	}
}

// copyAt copies b into the segment at off if write is set, else the
// segment into b: a hold and a release a page, one Waiter for them all.
func (a *Accessor) copyAt(b []byte, off int, write bool) error {
	err := a.check(off, len(b), write)
	var w Waiter
	for err == nil && len(b) > 0 {
		page, fo := off/a.pageSize, off%a.pageSize
		frame, ok := a.pages.Hold(page, write)
		if !ok {
			if frame, w, err = a.slow.Fault(page, write, w); err != nil {
				done(w)
				return err
			}
		}
		dst, src := b, frame[fo:]
		if write {
			dst, src = src, dst
		}
		k := copy(dst, src)
		w = a.release(page, fo, write, frame[fo:fo+k], w)
		b, off = b[k:], off+k
	}
	done(w)
	return err
}

// ReadAt copies len(b) bytes from the segment at off into b,
// coherently: the bytes reflect the latest completed writes anywhere
// in the cluster.
func (a *Accessor) ReadAt(b []byte, off int) error { return a.copyAt(b, off, false) }

// WriteAt copies b into the segment at off.
func (a *Accessor) WriteAt(b []byte, off int) error { return a.copyAt(b, off, true) }

// A wordOp is what a word accessor does to its bytes, the page held.
type wordOp uint8

const (
	opLoad       wordOp = iota // Uint32
	opStore                    // SetUint32
	opAdd                      // AddUint32
	opTestAndSet               // TestAndSet, one byte
	opClear                    // Clear, one byte
)

// word is the access of the n-byte word at off: one hold, op, one
// release. A word across two pages is two holds, not one access:
// Uint32 and SetUint32 take it through copyAt, which checks it, and
// AddUint32 refuses it once it passed the checks.
func (a *Accessor) word(off, n int, op wordOp, v uint32) (uint32, error) {
	write := op != opLoad
	page, fo := off/a.pageSize, off%a.pageSize
	if fo+n > a.pageSize && op != opAdd {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		err := a.copyAt(b[:], off, write)
		return binary.LittleEndian.Uint32(b[:]), err
	}
	err := a.check(off, n, write)
	if err != nil {
		return 0, err
	}
	if fo+n > a.pageSize {
		panic("mem: AddUint32 across a page boundary")
	}
	var w Waiter
	frame, ok := a.pages.Hold(page, write)
	if !ok {
		if frame, w, err = a.slow.Fault(page, write, nil); err != nil {
			done(w)
			return 0, err
		}
	}
	b := frame[fo : fo+n]
	switch op {
	case opLoad:
		v = binary.LittleEndian.Uint32(b)
	case opStore:
		binary.LittleEndian.PutUint32(b, v)
	case opAdd:
		v += binary.LittleEndian.Uint32(b)
		binary.LittleEndian.PutUint32(b, v)
	case opTestAndSet:
		v, b[0] = uint32(b[0]), 1
	case opClear:
		b[0] = 0
	}
	done(a.release(page, fo, write, b, w))
	return v, nil
}

// Uint32 reads a 32-bit little-endian word (the VAX byte order).
func (a *Accessor) Uint32(off int) (uint32, error) { return a.word(off, 4, opLoad, 0) }

// SetUint32 writes a 32-bit little-endian word.
func (a *Accessor) SetUint32(off int, v uint32) error {
	_, err := a.word(off, 4, opStore, v)
	return err
}

// AddUint32 atomically (with respect to the page's single-writer
// protocol state) adds delta to the word at off and returns the new
// value — a read-modify-write like the VAX decrement instruction, whose
// faulting access is a write fault. The word must not span pages.
func (a *Accessor) AddUint32(off int, delta uint32) (uint32, error) {
	return a.word(off, 4, opAdd, delta)
}

// TestAndSet sets the byte at off to 1 under write access and returns
// its previous value: the VAX interlocked instruction §7.2 studies (and
// recommends against for cross-site spinlocks).
func (a *Accessor) TestAndSet(off int) (byte, error) {
	v, err := a.word(off, 1, opTestAndSet, 0)
	return byte(v), err
}

// Clear zeroes the byte at off under write access (spinlock release).
func (a *Accessor) Clear(off int) error {
	_, err := a.word(off, 1, opClear, 0)
	return err
}
