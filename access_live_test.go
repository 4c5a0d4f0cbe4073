package mirage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mirage/internal/mem"
	"mirage/internal/wire"
)

// The access check runs on the caller's goroutine (DESIGN.md §17), so
// the page-level guarantees the actor loop used to give by running
// every access itself are now the hold's. The stress below puts every
// kind of access on one page from two sites at once and checks what
// the kinds promise: AddUint32 loses no update, a 64-byte slot is
// never seen half-written, a TestAndSet lock protects a two-word
// invariant, detached handles fail cleanly, and the checked trace —
// op records emitted while the page is held — verifies.

// Layout of the one contended page.
const (
	stressCounter = 0  // AddUint32 / Uint32
	stressLock    = 8  // TestAndSet / Clear
	stressPairA   = 16 // two words kept equal under the lock
	stressPairB   = 20
	stressSlot    = 64 // the 64-byte self-checking slot
	stressSlotLen = 64
)

const (
	stressSites   = 2
	stressPerSite = 4
	// stressRounds per worker is some 190 000 trace events a run, well
	// inside the buffer, and a few hundred page moves between the sites
	// (a few dozen over TCP), each into the middle of the other site's
	// four goroutines.
	stressRounds = 3000
)

// fillSlot writes the pattern a reader can check without knowing base.
func fillSlot(b []byte, base byte) {
	for i := range b {
		b[i] = base + byte(i)
	}
}

func slotTorn(b []byte) bool {
	for i := range b {
		if b[i] != b[0]+byte(i) {
			return true
		}
	}
	return false
}

// stressWorker is one goroutine's state. It owns its handle and swaps
// it for a fresh attach every detachEvery rounds.
type stressWorker struct {
	site        *Site
	id          SegID
	seg         *Segment
	n           int // worker number, distinct across the cluster
	detachEvery int

	adds     uint64
	lastSeen uint32
}

// round is one of each access kind. Any error it returns is the
// access's own; a broken promise is reported as a stressFault.
func (w *stressWorker) round(i int) error {
	v, err := w.seg.AddUint32(stressCounter, 1)
	if err != nil {
		return err
	}
	w.adds++
	if v <= w.lastSeen {
		return stressFault(fmt.Sprintf("add returned %d after this goroutine saw %d", v, w.lastSeen))
	}
	w.lastSeen = v
	if v, err = w.seg.Uint32(stressCounter); err != nil {
		return err
	}
	if v < w.lastSeen {
		return stressFault(fmt.Sprintf("read %d after this goroutine saw %d", v, w.lastSeen))
	}
	w.lastSeen = v

	var slot [stressSlotLen]byte
	fillSlot(slot[:], byte(w.n*31+i))
	if err := w.seg.WriteAt(slot[:], stressSlot); err != nil {
		return err
	}
	if err := w.seg.ReadAt(slot[:], stressSlot); err != nil {
		return err
	}
	if slotTorn(slot[:]) {
		return stressFault(fmt.Sprintf("torn slot % x", slot))
	}

	old, err := w.seg.TestAndSet(stressLock)
	if err != nil {
		return err
	}
	if old == 0 {
		a, err := w.seg.Uint32(stressPairA)
		if err != nil {
			return err
		}
		b, err := w.seg.Uint32(stressPairB)
		if err != nil {
			return err
		}
		if a != b {
			return stressFault(fmt.Sprintf("pair under the lock reads %d, %d", a, b))
		}
		if err := w.seg.SetUint32(stressPairA, a+1); err != nil {
			return err
		}
		if err := w.seg.SetUint32(stressPairB, a+1); err != nil {
			return err
		}
		if err := w.seg.Clear(stressLock); err != nil {
			return err
		}
	}

	if w.detachEvery > 0 && i%w.detachEvery == w.detachEvery-1 {
		return w.reattach()
	}
	return nil
}

// reattach detaches the worker's handle, checks that the dead handle
// says so, and attaches a fresh one.
func (w *stressWorker) reattach() error {
	if err := w.seg.Detach(); err != nil {
		return fmt.Errorf("detach: %w", err)
	}
	if _, err := w.seg.Uint32(stressCounter); !errors.Is(err, ErrDetached) {
		return stressFault(fmt.Sprintf("read through a detached handle: %v", err))
	}
	if _, err := w.seg.AddUint32(stressCounter, 1); !errors.Is(err, ErrDetached) {
		return stressFault(fmt.Sprintf("add through a detached handle: %v", err))
	}
	if err := w.seg.Detach(); !errors.Is(err, ErrDetached) {
		return stressFault(fmt.Sprintf("second detach: %v", err))
	}
	seg, err := w.site.Attach(w.id, false)
	if err != nil {
		return fmt.Errorf("re-attach: %w", err)
	}
	w.seg = seg
	return nil
}

// stressFault is a broken promise, as opposed to an access's error.
type stressFault string

func (f stressFault) Error() string { return string(f) }

// stressOutcome is what a run of the counted phase found.
type stressOutcome struct {
	adds       uint64 // AddUint32 calls that succeeded
	counter    [stressSites]uint32
	faults     []error // broken promises and unexpected errors
	violations []Violation
	dropped    int64
}

// runAccessStress runs the counted phase on a fresh two-site cluster
// and returns it, still open, with what the phase found.
func runAccessStress(t *testing.T, opts Options, rounds int) (*Cluster, SegID, stressOutcome) {
	t.Helper()
	opts.Obs = NewObs()
	opts.Check = true
	c := newTestCluster(t, stressSites, opts)
	id, err := c.Site(0).Shmget(IPCPrivate, c.opts.PageSize, Create, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	// The keeper holds the segment open across the workers' detaches:
	// at site 1 all four may be detached at once, which releases the
	// site's copies and closes its page table for a while.
	keeper, err := c.Site(0).Attach(id, false)
	if err != nil {
		t.Fatal(err)
	}
	var slot [stressSlotLen]byte
	fillSlot(slot[:], 0)
	if err := keeper.WriteAt(slot[:], stressSlot); err != nil {
		t.Fatal(err)
	}

	var out stressOutcome
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s := 0; s < stressSites; s++ {
		for g := 0; g < stressPerSite; g++ {
			w := &stressWorker{site: c.Site(s), id: id, n: s*stressPerSite + g, detachEvery: 40 + 7*g}
			if w.seg, err = w.site.Attach(id, false); err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				var fault error
				for i := 0; i < rounds && fault == nil; i++ {
					fault = w.round(i)
				}
				mu.Lock()
				out.adds += w.adds
				if fault != nil {
					out.faults = append(out.faults, fmt.Errorf("worker %d: %w", w.n, fault))
				}
				mu.Unlock()
			}()
		}
	}
	wg.Wait()

	for s := range out.counter {
		seg, err := c.Site(s).Attach(id, true)
		if err != nil {
			t.Fatal(err)
		}
		if out.counter[s], err = seg.Uint32(stressCounter); err != nil {
			t.Fatal(err)
		}
	}
	if out.violations, err = c.VerifyTrace(); err != nil {
		t.Fatal(err)
	}
	out.dropped = c.Obs().Buffer().Dropped()
	return c, id, out
}

func TestLiveAccessStress(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"inproc/delta=0", Options{}},
		{"inproc/delta=1ms", Options{Delta: time.Millisecond}},
		{"tcp/delta=0", Options{TCP: true}},
		{"tcp/delta=1ms", Options{TCP: true, Delta: time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, id, out := runAccessStress(t, tc.opts, stressRounds)
			for _, f := range out.faults {
				t.Error(f)
			}
			for s, v := range out.counter {
				if uint64(v) != out.adds {
					t.Errorf("site %d reads counter %d after %d adds", s, v, out.adds)
				}
			}
			for _, v := range out.violations {
				t.Errorf("trace violation: %v", v)
			}
			if out.dropped != 0 {
				t.Errorf("trace buffer dropped %d events", out.dropped)
			}
			closeUnderLoad(t, c, id)
		})
	}
}

// closeUnderLoad closes the cluster under eight goroutines in the
// middle of their accesses: every one must come back with ErrDetached
// (ErrClosed from an Attach), whether Close found it on the fast path,
// waiting for a page, or between the two.
func closeUnderLoad(t *testing.T, c *Cluster, id SegID) {
	t.Helper()
	var running, wg sync.WaitGroup
	var clean atomic.Int32
	for s := 0; s < stressSites; s++ {
		for g := 0; g < stressPerSite; g++ {
			w := &stressWorker{site: c.Site(s), id: id, n: s*stressPerSite + g}
			var err error
			if w.seg, err = w.site.Attach(id, false); err != nil {
				t.Fatal(err)
			}
			running.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				for i := 0; err == nil; i++ {
					if i == 1 {
						running.Done()
					}
					err = w.round(i)
				}
				if errors.Is(err, ErrDetached) {
					clean.Add(1)
				} else {
					t.Errorf("worker %d after Close: %v", w.n, err)
				}
			}()
		}
	}
	running.Wait()
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	wg.Wait()
	if n := clean.Load(); n != stressSites*stressPerSite {
		t.Errorf("%d of %d workers returned ErrDetached", n, stressSites*stressPerSite)
	}
	// The fabric is down too: an engine timer or a chaos-delayed copy
	// that fires now must be refused, not delivered.
	if err := c.nodes[0].tr.Send(1, &wire.Msg{Kind: wire.KReadReq}); err == nil {
		t.Error("Send after Close succeeded")
	}
}

// A resident access allocates nothing: the page loop keeps its state in
// locals, a word across pages goes through a buffer on the caller's
// stack, and no channel is made unless the access faults.
func TestResidentAccessZeroAllocs(t *testing.T) {
	c := newTestCluster(t, 1, Options{})
	id, err := c.Site(0).Shmget(IPCPrivate, 4096, Create, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := c.Site(0).Attach(id, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for _, tc := range []struct {
		name string
		op   func() error
	}{
		{"Uint32", func() error { _, err := seg.Uint32(8); return err }},
		{"SetUint32", func() error { return seg.SetUint32(8, 7) }},
		{"AddUint32", func() error { _, err := seg.AddUint32(8, 1); return err }},
		{"TestAndSet", func() error { _, err := seg.TestAndSet(12); return err }},
		{"Clear", func() error { return seg.Clear(12) }},
		{"ReadAt64", func() error { return seg.ReadAt(buf, 480) }},   // spans two pages
		{"WriteAt64", func() error { return seg.WriteAt(buf, 480) }}, // spans two pages
		{"Uint32Across", func() error { _, err := seg.Uint32(510); return err }},
		{"SetUint32Across", func() error { return seg.SetUint32(510, 7) }},
	} {
		var err error
		if n := testing.AllocsPerRun(200, func() { err = tc.op() }); n != 0 || err != nil {
			t.Errorf("%s: %.1f allocs/op (err %v), want 0", tc.name, n, err)
		}
	}
}

// Of an attach's resident accesses to a page under a time window, every
// mem.TurnEvery-th waits for the actor loop's turn after it, and no
// other; an access to a page without one never meets the loop at all.
// Both are seen with the loop stopped.
func TestWindowedAccessTakesLoopTurn(t *testing.T) {
	for _, delta := range []time.Duration{0, time.Minute} {
		t.Run(fmt.Sprint("delta=", delta), func(t *testing.T) {
			c := newTestCluster(t, 2, Options{Delta: delta})
			id, err := c.Site(0).Shmget(IPCPrivate, 512, Create, 0o600)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Site(0).Attach(id, false); err != nil {
				t.Fatal(err)
			}
			first, err := c.Site(1).Attach(id, false)
			if err != nil {
				t.Fatal(err)
			}
			// Site 1 is granted the page, with the window if there is one.
			if err := first.SetUint32(0, 7); err != nil {
				t.Fatal(err)
			}
			// A handle of its own, whose count of windowed accesses starts
			// at zero.
			seg, err := c.Site(1).Attach(id, false)
			if err != nil {
				t.Fatal(err)
			}
			read := func(n int) error {
				for i := 0; i < n; i++ {
					if v, err := seg.Uint32(0); err != nil || v != 7 {
						return fmt.Errorf("read %d (err %v), want 7", v, err)
					}
				}
				return nil
			}
			release := make(chan struct{})
			if !c.Site(1).node.queue(loopItem{fn: func() { <-release }}) {
				t.Fatal("loop closed")
			}
			defer func() {
				select {
				case <-release:
				default:
					close(release)
				}
			}()
			done := make(chan error, 1)
			go func() { done <- read(mem.TurnEvery - 1) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("one of the first %d resident accesses waited for the loop", mem.TurnEvery-1)
			}
			go func() { done <- read(1) }()
			if delta == 0 {
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("a resident access to a page without a window waited for the loop")
				}
				return
			}
			select {
			case err := <-done:
				t.Fatalf("access %d returned (err %v) without the loop's turn", mem.TurnEvery, err)
			case <-time.After(50 * time.Millisecond):
			}
			close(release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}
