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
	// fault to the protocol engine and sleep until the page's state at
	// this site changed, until it permits the access (mmu.Seg.Check).
	// The caller then tries the access again, and faults again should
	// the page have left meanwhile. An error ends the access; a
	// destroyed segment is ErrDetached.
	Fault(page int, write bool, w Waiter) (Waiter, error)
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
	size, pageSize   int
	pages            *mmu.Seg
	slow             SlowPath
	readonly, record bool
	detached         atomic.Bool
	windowed         atomic.Uint32 // accesses to windowed pages, for the turn
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

// The paper's loop (§6.1), which an access runs on each page it
// touches: check, load or store, and on a fault ask the engine for the
// page and sleep, then try again. A read that is not recorded first
// tries optimistically: it copies the bytes and keeps them if the
// page's word did not move, writing nothing. Every other access,
// and a read that fails the optimistic check peekTries times, holds the
// page (mmu.Seg.Hold): it takes it exclusively, moves the bytes, and
// gives it back (release). Nothing between hold and release may block
// or panic (the simulator would stop).

// peekTries is how often a read tries optimistically before it holds
// the page. A try fails while a hold is under way, which lasts tens of
// nanoseconds; holding at once would make the reads beside it fail in
// turn, one exclusive reader after another.
const peekTries = 4

// release ends a hold: it records b, at fo of page, unholds, and counts
// the access towards the windowed turn.
func (a *Accessor) release(page, fo int, write bool, b []byte, w Waiter) Waiter {
	if a.record {
		a.slow.RecordOp(page, fo, write, b)
	}
	return a.turn(a.pages.Unhold(page, write), w)
}

// turn takes the loop's turn after every TurnEvery-th access the attach
// makes to windowed pages. The count is a call of its own so that turn,
// which every access calls, inlines into the resident word's path.
func (a *Accessor) turn(windowed bool, w Waiter) Waiter {
	if windowed {
		return a.windowedTurn(w)
	}
	return w
}

func (a *Accessor) windowedTurn(w Waiter) Waiter {
	if a.windowed.Add(1)%TurnEvery == 0 {
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

// An accessOp is what an access does to the bytes of the page: copy
// them out, copy them in, or one of the two read-modify-writes, which
// take the page as a write does.
type accessOp uint8

const (
	opLoad       accessOp = iota // ReadAt, Uint32
	opStore                      // WriteAt, SetUint32, Clear
	opAdd                        // AddUint32: b is the 4-byte addend, and then the sum
	opTestAndSet                 // TestAndSet: b is one byte, and then the old value
)

// access runs op on the segment's bytes at off and b: the loop once a
// page, one Waiter for them all. A word across two pages is two
// accesses, not one; a read-modify-write refuses it once it passed the
// checks.
func (a *Accessor) access(b []byte, off int, op accessOp) error {
	write := op != opLoad
	err := a.check(off, len(b), write)
	if err == nil && op >= opAdd && off%a.pageSize+len(b) > a.pageSize {
		panic("mem: AddUint32 across a page boundary")
	}
	var w Waiter
	for err == nil && len(b) > 0 {
		page, fo := off/a.pageSize, off%a.pageSize
		k := 0
		for try := 0; k == 0 && !write && !a.record && try < peekTries; try++ {
			if frame, at, ok := a.pages.Snap(page); ok { // mmu.Seg.Snap, Settled
				if n := copy(b, frame[fo:]); a.pages.Settled(page, at) {
					k, w = n, a.turn(at.Windowed(), w)
				}
			}
		}
		if k == 0 {
			frame, ok := a.pages.Hold(page, write)
			if !ok {
				w, err = a.slow.Fault(page, write, w)
				continue
			}
			k = apply(op, b, frame[fo:])
			w = a.release(page, fo, write, frame[fo:fo+k], w)
		}
		b, off = b[k:], off+k
	}
	done(w)
	return err
}

// apply does op to b and the page's bytes from h, the page held, and
// reports how many bytes of the page it read or wrote.
func apply(op accessOp, b, h []byte) int {
	switch op {
	case opLoad:
		return copy(b, h)
	case opStore:
		return copy(h, b)
	case opAdd:
		binary.LittleEndian.PutUint32(b, binary.LittleEndian.Uint32(b)+binary.LittleEndian.Uint32(h))
		return copy(h, b)
	}
	b[0], h[0] = h[0], 1
	return 1
}

// ReadAt copies len(b) bytes from the segment at off into b,
// coherently: the bytes reflect the latest completed writes anywhere
// in the cluster.
func (a *Accessor) ReadAt(b []byte, off int) error { return a.access(b, off, opLoad) }

// WriteAt copies b into the segment at off.
func (a *Accessor) WriteAt(b []byte, off int) error { return a.access(b, off, opStore) }

// Uint32 reads a 32-bit little-endian word (the VAX byte order). Its
// first optimistic try is written out here, on the word itself, as is
// SetUint32's hold: they are the resident access, which the general
// loop costs a third again (hit's p50s, E52).
func (a *Accessor) Uint32(off int) (uint32, error) {
	if page, fo := off/a.pageSize, off%a.pageSize; fo+4 <= a.pageSize && !a.record && a.check(off, 4, false) == nil {
		if frame, at, ok := a.pages.Snap(page); ok {
			if v := binary.LittleEndian.Uint32(frame[fo:]); a.pages.Settled(page, at) {
				done(a.turn(at.Windowed(), nil))
				return v, nil
			}
		}
	}
	var b [4]byte
	err := a.access(b[:], off, opLoad)
	return binary.LittleEndian.Uint32(b[:]), err
}

// SetUint32 writes a 32-bit little-endian word; see Uint32.
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

// word is a write accessor's op on the n-byte word at off, v the value
// stored or added; it returns the word after op (the sum, or the byte
// TestAndSet found). A word inside one page is held here, on the word
// itself, without the loop, and faults through it.
func (a *Accessor) word(off, n int, op accessOp, v uint32) (uint32, error) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	if page, fo := off/a.pageSize, off%a.pageSize; fo+n <= a.pageSize && a.check(off, n, true) == nil {
		if frame, ok := a.pages.Hold(page, true); ok {
			k := apply(op, b[:n], frame[fo:])
			done(a.release(page, fo, true, frame[fo:fo+k], nil))
			return binary.LittleEndian.Uint32(b[:]), nil
		}
	}
	err := a.access(b[:n], off, op)
	return binary.LittleEndian.Uint32(b[:]), err
}

// Clear zeroes the byte at off under write access (spinlock release).
func (a *Accessor) Clear(off int) error { return a.access([]byte{0}, off, opStore) }
