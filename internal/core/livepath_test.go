package core

import (
	"testing"
	"time"
	"unsafe"

	"mirage/internal/mmu"
)

// probeEnv is tEnv counting what the engine asks of it: clock reads and
// Exec calls.
type probeEnv struct {
	tEnv
	reads, execs *int
}

func (e probeEnv) Now() time.Duration { *e.reads++; return e.tEnv.Now() }
func (e probeEnv) Exec(cost time.Duration, fn func()) {
	*e.execs++
	e.tEnv.Exec(cost, fn)
}

// inlineEnv is probeEnv declaring itself Inline, as a live node does.
// Its Exec still works, so a test sees an engine that calls it anyway.
type inlineEnv struct{ probeEnv }

func (inlineEnv) ExecInline() {}

// newProbeNet is newTestNet with every engine on a probeEnv (inline: an
// inlineEnv) sharing the two counters.
func newProbeNet(t *testing.T, sites int, inline bool, reads, execs *int) *testNet {
	t.Helper()
	n := newTestNet(t, sites, Options{})
	opt, err := Options{Costs: zeroCosts()}.ForCluster(sites, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range n.engines {
		var env Env = probeEnv{tEnv{n, i}, reads, execs}
		if inline {
			env = inlineEnv{env.(probeEnv)}
		}
		n.engines[i] = New(env, opt)
	}
	return n
}

// faultCycle is the fault workloads' cycle with site 0 the library: an
// upgrade at 0, a write fault at 1, a read fault at 0, each settled.
func (n *testNet) faultCycle() {
	n.acquire(0, 1, 0, true)
	n.settle()
	n.acquire(1, 1, 0, true)
	n.settle()
	n.acquire(0, 1, 0, false)
	n.settle()
}

// TestInlineEnvTakesNoExec: an engine whose Env is Inline hands Exec
// nothing — a message is received and a request transmitted at once, so
// no closure is made for either — and the cycle ends as it does through
// Exec.
func TestInlineEnvTakesNoExec(t *testing.T) {
	for _, inline := range []bool{false, true} {
		var reads, execs int
		n := newProbeNet(t, 2, inline, &reads, &execs)
		n.newSeg(1, 0)
		n.acquire(1, 1, 0, false) // both sites hold a read copy
		n.settle()
		execs = 0
		n.faultCycle()
		switch {
		case inline && execs != 0:
			t.Fatalf("inline: a fault cycle called Exec %d times, want 0", execs)
		case !inline && execs == 0:
			t.Fatal("an Env that is not Inline was never handed the cycle's work")
		}
		st := n.engines[0].LibraryState(1, 0)
		if st.Writer != mmu.NoWriter || st.Clock != 1 || !st.Readers.Has(0) || !st.Readers.Has(1) {
			t.Fatalf("inline=%v: library record after the cycle %+v, want readers {0,1} with clock 1", inline, st)
		}
	}
}

// TestZeroWindowReadsNoClock: a copy granted without a window is never
// measured against the clock, so with Δ = 0 an upgrade, a write fault
// and a read fault read it not once. With Δ > 0 a granted copy's install
// time is still stamped, and its unexpired window still denies.
func TestZeroWindowReadsNoClock(t *testing.T) {
	var reads, execs int
	n := newProbeNet(t, 2, true, &reads, &execs)
	n.newSeg(1, 0)
	n.acquire(1, 1, 0, false)
	n.settle()
	reads = 0
	n.faultCycle()
	if reads != 0 {
		t.Fatalf("Δ = 0: a fault cycle read the clock %d times, want 0", reads)
	}

	const delta = 50 * time.Millisecond
	n = newProbeNet(t, 2, true, &reads, &execs)
	n.newSeg(1, delta)
	n.k.After(10*time.Millisecond, func() {}) // so that a stamp is not 0
	n.settle()
	reads = 0
	n.acquire(1, 1, 0, true)
	at := n.engines[1].Seg(1).Aux(0).InstallTime
	if reads == 0 || at == 0 || at > n.k.Now().Duration() {
		t.Fatalf("Δ = %v: write copy installed at %v (clock read %d times, now %v): the install time is not stamped",
			delta, at, reads, n.k.Now().Duration())
	}
	start := n.k.Now()
	n.acquire(0, 1, 0, true)
	if wait := n.k.Now().Sub(start); wait < delta-time.Millisecond {
		t.Fatalf("Δ = %v: the write at site 0 was granted after %v, inside site 1's window", delta, wait)
	}
	if n.engines[1].Stats().BusyReplies == 0 {
		t.Fatal("the unexpired window did not deny the invalidation")
	}
}

// TestLibraryQueueKeepsItsArray: a page's request queue is dequeued and
// filtered in place, so once warm the write, read-batch and release
// paths append to the same array, and every vacated entry is cleared
// (a release's payload is not kept alive by the queue).
func TestLibraryQueueKeepsItsArray(t *testing.T) {
	n := newTestNet(t, 4, Options{})
	n.newSeg(1, 0)
	p := &n.engines[0].segs[1].lib.pages[0]
	cycle := func() {
		// A write fault at 1 and read faults at 2 and 3 reach the library
		// together: the write is dequeued, the reads wait out its cycle
		// and are granted as one batch.
		n.engines[1].Fault(1, 0, true, 7, func() {})
		n.engines[2].Fault(1, 0, false, 7, func() {})
		n.engines[3].Fault(1, 0, false, 7, func() {})
		n.settle()
		// Site 2 releases its read copy; its page table reopens.
		n.engines[2].ReleaseSegment(1)
		n.settle()
	}
	cycle()
	if cap(p.queue) == 0 {
		t.Fatal("after warm-up the queue has no array: a dequeue or the read filter let it go")
	}
	array, capacity := unsafe.SliceData(p.queue), cap(p.queue)
	for i := 0; i < 8; i++ {
		cycle()
		if unsafe.SliceData(p.queue) != array || cap(p.queue) != capacity {
			t.Fatalf("cycle %d: the queue moved to a new array (cap %d → %d)", i, capacity, cap(p.queue))
		}
		for j, r := range p.queue[len(p.queue):capacity] {
			if r.data != nil || r.site != 0 || r.kind != 0 {
				t.Fatalf("cycle %d: vacated queue entry %d still holds %+v", i, len(p.queue)+j, r)
			}
		}
	}
	st := n.engines[0].LibraryState(1, 0)
	if st.Writer != mmu.NoWriter || !st.Readers.Has(1) || !st.Readers.Has(3) || st.Readers.Has(2) || st.Queued != 0 {
		t.Fatalf("library record after the cycles %+v, want readers {1,3} and an empty queue", st)
	}
}
