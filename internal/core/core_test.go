package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"mirage/internal/mem"
	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/sim"
	"mirage/internal/vaxmodel"
	"mirage/internal/wire"
)

// testNet wires N engines together over a toy deterministic transport:
// messages are delivered after a fixed per-hop delay, Exec charges run
// as plain timers. It exercises the protocol state machines without
// the CPU scheduler or the Ethernet model.
type testNet struct {
	t       *testing.T
	k       *sim.Kernel
	engines []*Engine
	delay   time.Duration
	down    map[int]bool    // crashed sites: traffic to/from them is dropped
	cut     map[[2]int]bool // one-way cuts: traffic from [0] to [1] is dropped
	// mangle, when set, sees every message on its way out and may damage
	// it (retransmissions pass again: keep it idempotent).
	mangle func(to int, m *wire.Msg)
	// hold, when set, sees every message on its way out; one it returns
	// true for is not delivered (the test keeps it, to deliver late).
	hold func(from, to int, m *wire.Msg) bool
}

type tEnv struct {
	n    *testNet
	site int
}

func (e tEnv) Site() int          { return e.site }
func (e tEnv) Now() time.Duration { return e.n.k.Now().Duration() }
func (e tEnv) After(d time.Duration, fn func()) func() {
	t := e.n.k.After(d, fn)
	return func() { t.Cancel() }
}
func (e tEnv) Send(to int, m NetMsg) {
	if e.n.down[to] || e.n.down[e.site] || e.n.cut[[2]int{e.site, to}] {
		return // a crashed site neither sends nor receives
	}
	if wm, ok := m.(*wire.Msg); ok && e.n.mangle != nil {
		e.n.mangle(to, wm)
	}
	if wm, ok := m.(*wire.Msg); ok && e.n.hold != nil && e.n.hold(e.site, to, wm) {
		return
	}
	d := e.n.delay
	if to == e.site {
		d = 0
	}
	e.n.k.After(d, func() { e.n.engines[to].Deliver(m) })
}
func (e tEnv) Exec(cost time.Duration, fn func()) {
	e.n.k.After(cost, fn)
}

// zeroCosts makes protocol service free so tests reason about Δ and
// message delays only.
func zeroCosts() *Costs { return &Costs{} }

func newTestNet(t *testing.T, sites int, opt Options) *testNet {
	t.Helper()
	if opt.Costs == nil {
		opt.Costs = zeroCosts()
	}
	opt, err := opt.ForCluster(sites, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	n := &testNet{t: t, k: sim.NewKernel(), delay: time.Millisecond, down: make(map[int]bool)}
	for i := 0; i < sites; i++ {
		n.engines = append(n.engines, New(tEnv{n, i}, opt))
	}
	return n
}

// newSeg creates a segment with library at site 0 and registers it on
// every engine.
func (n *testNet) newSeg(pages int, delta time.Duration) *mem.Segment {
	meta := &mem.Segment{
		ID: 1, Key: 42, Size: pages * 512, PageSize: 512, Pages: pages,
		Library: 0, Delta: delta, Mode: 0o666,
	}
	n.engines[0].CreateSegment(meta)
	for i := 1; i < len(n.engines); i++ {
		n.engines[i].AttachSegment(meta)
	}
	return meta
}

// acquire drives a fault loop at a site until the access is granted,
// then returns. It fails the test if the simulation drains first.
func (n *testNet) acquire(site int, seg, page int32, write bool) {
	n.t.Helper()
	e := n.engines[site]
	done := false
	var loop func()
	loop = func() {
		if e.CheckAccess(seg, page, write) == mmu.NoFault {
			done = true
			return
		}
		e.Fault(seg, page, write, 100+int32(site), loop)
	}
	loop()
	for !done {
		if !n.k.Step() {
			n.t.Fatalf("site %d: acquire(seg=%d page=%d write=%v) starved", site, seg, page, write)
		}
	}
}

// settle drains all pending events.
func (n *testNet) settle() { n.k.Run() }

// protState summarizes page protections across sites for invariant
// checks: at most one writer; never a writer alongside readers
// elsewhere.
func (n *testNet) checkSingleWriter(seg, page int32) {
	n.t.Helper()
	writers, readers := 0, 0
	for _, e := range n.engines {
		s := e.Seg(seg)
		if s == nil {
			continue
		}
		switch s.Prot(int(page)) {
		case mmu.ReadWrite:
			writers++
		case mmu.ReadOnly:
			readers++
		}
	}
	if writers > 1 {
		n.t.Fatalf("page %d: %d writable copies", page, writers)
	}
	if writers == 1 && readers > 0 {
		n.t.Fatalf("page %d: writable copy coexists with %d read copies", page, readers)
	}
}

func TestInitialStateLibraryIsWriter(t *testing.T) {
	n := newTestNet(t, 3, Options{})
	seg := n.newSeg(2, 0)
	lib := n.engines[0]
	if lib.Seg(int32(seg.ID)).Prot(0) != mmu.ReadWrite {
		t.Fatal("library must hold pages read-write at creation")
	}
	st := lib.LibraryState(1, 0)
	if st.Writer != 0 || st.Clock != 0 || !st.Readers.Empty() {
		t.Fatalf("library state = %+v", st)
	}
	if lib.Seg(1).Aux(0).Window != 0 {
		t.Fatal("creator's initial hold must not carry a window")
	}
}

func TestRemoteReadFaultTransfersPage(t *testing.T) {
	n := newTestNet(t, 3, Options{})
	n.newSeg(1, 0)
	// Put data at the library.
	copy(n.engines[0].Frame(1, 0), []byte{0xAA, 0xBB})

	n.acquire(1, 1, 0, false)
	f := n.engines[1].Frame(1, 0)
	if f[0] != 0xAA || f[1] != 0xBB {
		t.Fatalf("data not transferred: % x", f[:2])
	}
	if n.engines[1].Seg(1).Prot(0) != mmu.ReadOnly {
		t.Fatal("reader should hold a read-only copy")
	}
	n.settle()
	st := n.engines[0].LibraryState(1, 0)
	// Table 1 Writer/Readers: the old writer (library) downgrades and
	// remains a reader and the clock site.
	if st.Writer != mmu.NoWriter {
		t.Fatalf("writer = %d", st.Writer)
	}
	if !st.Readers.Has(0) || !st.Readers.Has(1) {
		t.Fatalf("readers = %v", st.Readers)
	}
	if st.Clock != 0 {
		t.Fatalf("clock = %d, want downgraded writer 0", st.Clock)
	}
	if n.engines[0].Seg(1).Prot(0) != mmu.ReadOnly {
		t.Fatal("optimization 2: downgraded writer retains a read copy")
	}
	n.checkSingleWriter(1, 0)
}

func TestRemoteWriteFaultInvalidatesWriter(t *testing.T) {
	n := newTestNet(t, 2, Options{})
	n.newSeg(1, 0)
	copy(n.engines[0].Frame(1, 0), []byte{7})

	n.acquire(1, 1, 0, true)
	if n.engines[1].Seg(1).Prot(0) != mmu.ReadWrite {
		t.Fatal("new writer should hold read-write")
	}
	if n.engines[1].Frame(1, 0)[0] != 7 {
		t.Fatal("page data lost on write transfer")
	}
	if n.engines[0].Seg(1).Present(0) {
		t.Fatal("old writer's copy must be invalidated (Writer/Writer row)")
	}
	n.settle()
	st := n.engines[0].LibraryState(1, 0)
	if st.Writer != 1 || st.Clock != 1 {
		t.Fatalf("state = %+v", st)
	}
	n.checkSingleWriter(1, 0)
}

func TestReaderUpgradeSendsNoPage(t *testing.T) {
	n := newTestNet(t, 2, Options{})
	n.newSeg(1, 0)
	n.acquire(1, 1, 0, false) // site 1 becomes a reader
	n.settle()
	before := n.engines[0].Stats().PagesSent + n.engines[1].Stats().PagesSent

	n.acquire(1, 1, 0, true) // upgrade in place
	n.settle()
	after := n.engines[0].Stats().PagesSent + n.engines[1].Stats().PagesSent
	if after != before {
		t.Fatalf("upgrade moved %d page copies; optimization 1 sends none", after-before)
	}
	if n.engines[1].Stats().Upgrades != 1 {
		t.Fatalf("upgrades = %d", n.engines[1].Stats().Upgrades)
	}
	if n.engines[0].Seg(1).Present(0) {
		t.Fatal("other readers must be invalidated on upgrade")
	}
	st := n.engines[0].LibraryState(1, 0)
	if st.Writer != 1 {
		t.Fatalf("writer = %d", st.Writer)
	}
	n.checkSingleWriter(1, 0)
}

func TestMultipleReadersCoexist(t *testing.T) {
	n := newTestNet(t, 4, Options{})
	n.newSeg(1, 0)
	for s := 1; s < 4; s++ {
		n.acquire(s, 1, 0, false)
	}
	n.settle()
	st := n.engines[0].LibraryState(1, 0)
	if st.Readers.Count() != 4 { // 3 requesters + downgraded library
		t.Fatalf("readers = %v", st.Readers)
	}
	for s := 0; s < 4; s++ {
		if n.engines[s].Seg(1).Prot(0) != mmu.ReadOnly {
			t.Fatalf("site %d prot = %v", s, n.engines[s].Seg(1).Prot(0))
		}
	}
	n.checkSingleWriter(1, 0)
}

func TestWriteInvalidatesAllReaders(t *testing.T) {
	n := newTestNet(t, 4, Options{})
	n.newSeg(1, 0)
	for s := 1; s < 4; s++ {
		n.acquire(s, 1, 0, false)
	}
	n.settle()
	n.acquire(3, 1, 0, true)
	n.settle()
	for s := 0; s < 3; s++ {
		if n.engines[s].Seg(1).Present(0) {
			t.Fatalf("site %d still holds a copy after remote write", s)
		}
	}
	if n.engines[3].Seg(1).Prot(0) != mmu.ReadWrite {
		t.Fatal("writer lacks the page")
	}
	n.checkSingleWriter(1, 0)
}

func TestCoherenceReadSeesLatestWrite(t *testing.T) {
	n := newTestNet(t, 3, Options{})
	n.newSeg(1, 0)
	// Site 1 writes.
	n.acquire(1, 1, 0, true)
	n.engines[1].Frame(1, 0)[10] = 111
	// Site 2 reads: must see 111.
	n.acquire(2, 1, 0, false)
	if got := n.engines[2].Frame(1, 0)[10]; got != 111 {
		t.Fatalf("stale read: %d", got)
	}
	// Site 2 writes.
	n.acquire(2, 1, 0, true)
	n.engines[2].Frame(1, 0)[10] = 222
	// Site 1 reads again: must see 222.
	n.acquire(1, 1, 0, false)
	if got := n.engines[1].Frame(1, 0)[10]; got != 222 {
		t.Fatalf("stale read: %d", got)
	}
	n.settle()
	n.checkSingleWriter(1, 0)
}

func TestDeltaDelaysInvalidation(t *testing.T) {
	delta := 50 * time.Millisecond
	n := newTestNet(t, 2, Options{})
	n.newSeg(1, delta)
	start := n.k.Now()
	n.acquire(1, 1, 0, true) // first transfer: library window is 0
	gotAt := n.k.Now().Sub(start)
	if gotAt > 20*time.Millisecond {
		t.Fatalf("initial grant took %v; creator hold must not delay", gotAt)
	}
	// Immediately request from site 0: site 1's fresh window must hold
	// the page for ~delta.
	start = n.k.Now()
	n.acquire(0, 1, 0, true)
	wait := n.k.Now().Sub(start)
	if wait < delta {
		t.Fatalf("write granted after %v, before Δ=%v expired", wait, delta)
	}
	if wait > delta+30*time.Millisecond {
		t.Fatalf("write granted after %v; too long after Δ=%v", wait, delta)
	}
	if n.engines[1].Stats().BusyReplies == 0 {
		t.Fatal("PolicyRetry should have produced a busy reply")
	}
	if n.engines[0].Stats().Retries == 0 {
		t.Fatal("library should have retried the invalidation")
	}
}

func TestPolicyQueueAvoidsRetry(t *testing.T) {
	delta := 50 * time.Millisecond
	n := newTestNet(t, 2, Options{Policy: PolicyQueue})
	n.newSeg(1, delta)
	n.acquire(1, 1, 0, true)
	start := n.k.Now()
	n.acquire(0, 1, 0, true)
	wait := n.k.Now().Sub(start)
	if wait < delta-time.Millisecond {
		t.Fatalf("granted after %v, inside Δ", wait)
	}
	if n.engines[1].Stats().BusyReplies != 0 {
		t.Fatal("PolicyQueue must not send busy replies")
	}
	if n.engines[0].Stats().Retries != 0 {
		t.Fatal("PolicyQueue must not retry")
	}
}

func TestPolicyHonorClose(t *testing.T) {
	// The threshold is one short-message round trip. A window with less
	// than that left is honored locally; with more, the clock site
	// replies busy as PolicyRetry would.
	for _, c := range []struct {
		delta time.Duration
		busy  bool
	}{
		{vaxmodel.ShortRTT - 3*time.Millisecond, false},
		{vaxmodel.ShortRTT + 10*time.Millisecond, true},
	} {
		n := newTestNet(t, 2, Options{Policy: PolicyHonorClose})
		n.newSeg(1, c.delta)
		n.acquire(1, 1, 0, true)
		n.acquire(0, 1, 0, true)
		if busy := n.engines[1].Stats().BusyReplies != 0; busy != c.busy {
			t.Errorf("Δ = %v: busy replies %v, want %v", c.delta, busy, c.busy)
		}
		if n.engines[1].counts[obs.CDeltaDenial] == 0 {
			t.Errorf("Δ = %v: the invalidation met no open window", c.delta)
		}
	}
}

func TestReadBatching(t *testing.T) {
	// While the first read cycle is delayed by Δ at the writer, more
	// read requests pile up; they must be granted together.
	delta := 80 * time.Millisecond
	n := newTestNet(t, 4, Options{})
	n.newSeg(1, delta)
	n.acquire(1, 1, 0, true) // site 1 writer with fresh window

	granted := make([]bool, 4)
	for s := 2; s < 4; s++ {
		s := s
		e := n.engines[s]
		var loop func()
		loop = func() {
			if e.CheckAccess(1, 0, false) == mmu.NoFault {
				granted[s] = true
				return
			}
			e.Fault(1, 0, false, int32(s), loop)
		}
		loop()
	}
	n.settle()
	if !granted[2] || !granted[3] {
		t.Fatal("batched readers not granted")
	}
	st := n.engines[0].LibraryState(1, 0)
	if !st.Readers.Has(2) || !st.Readers.Has(3) || !st.Readers.Has(1) {
		t.Fatalf("readers = %v", st.Readers)
	}
	if st.Clock != 1 {
		t.Fatalf("clock = %d, want downgraded writer", st.Clock)
	}
	// One downgrade cycle served both readers: site 1 sent 2 pages but
	// was invalidated/downgraded once.
	if n.engines[1].Stats().Downgrades != 1 {
		t.Fatalf("downgrades = %d", n.engines[1].Stats().Downgrades)
	}
}

func TestAlreadySatisfiedRequest(t *testing.T) {
	// Two colocated faults at protocol level: the second request finds
	// the site already a reader.
	n := newTestNet(t, 2, Options{})
	n.newSeg(1, 0)
	e := n.engines[1]
	got := 0
	var loop1 func()
	loop1 = func() {
		if e.CheckAccess(1, 0, false) == mmu.NoFault {
			got++
			return
		}
		e.Fault(1, 0, false, 1, loop1)
	}
	loop1()
	n.settle()
	// Now force a duplicate read request even though we hold the page:
	// the library replies KAlready.
	e.Fault(1, 0, false, 2, func() { got++ })
	n.settle()
	if got != 2 {
		t.Fatalf("got = %d", got)
	}
	if e.Stats().Already == 0 {
		t.Fatal("expected an already-satisfied reply")
	}
}

func TestClockSelfUpgrade(t *testing.T) {
	// The clock site itself upgrades: reader set {0,1}, clock 0
	// (downgraded library), then the library process writes.
	n := newTestNet(t, 2, Options{})
	n.newSeg(1, 0)
	n.acquire(1, 1, 0, false) // library downgraded, clock=0, readers {0,1}
	n.settle()
	n.acquire(0, 1, 0, true) // library upgrades itself
	n.settle()
	st := n.engines[0].LibraryState(1, 0)
	if st.Writer != 0 || st.Clock != 0 {
		t.Fatalf("state = %+v", st)
	}
	if n.engines[1].Seg(1).Present(0) {
		t.Fatal("other reader must be invalidated")
	}
	if n.engines[0].Seg(1).Prot(0) != mmu.ReadWrite {
		t.Fatal("self-upgrade failed")
	}
	n.checkSingleWriter(1, 0)
}

func TestWriterWriterTransfers(t *testing.T) {
	n := newTestNet(t, 3, Options{})
	n.newSeg(1, 0)
	n.acquire(1, 1, 0, true)
	n.engines[1].Frame(1, 0)[0] = 1
	n.acquire(2, 1, 0, true)
	if n.engines[2].Frame(1, 0)[0] != 1 {
		t.Fatal("Writer/Writer transfer lost data")
	}
	if n.engines[1].Seg(1).Present(0) {
		t.Fatal("old writer must be fully invalidated (no downgrade on write request)")
	}
	n.settle()
	n.checkSingleWriter(1, 0)
}

// TestOvertakingInvalIsHeldUntilThePageIsIn: a write grant the library
// ships itself is complete when it is sent, so the next cycle's KInval
// to the new writer can reach it before its page. Site 1's page is kept
// back while site 2's write opens that cycle; site 1, with no copy and
// its write request out, holds the KInval, and once the page is in it
// installs it, then serves the KInval — the page goes on to site 2 with
// site 1's byte in it. Run at once, the KInval finds no copy and the
// engine panics ("inval for absent page").
func TestOvertakingInvalIsHeldUntilThePageIsIn(t *testing.T) {
	n := newTestNet(t, 3, Options{Obs: &obs.Obs{Tracer: obs.NewBuffer()}})
	n.newSeg(1, 0)
	var page *wire.Msg
	n.hold = func(from, to int, m *wire.Msg) bool {
		if from == 0 && to == 1 && m.Kind == wire.KPageSend && page == nil {
			page = m
			return true
		}
		return false
	}
	e1, e2 := n.engines[1], n.engines[2]
	e1.Fault(1, 0, true, 101, func() {})
	n.settle()
	if page == nil {
		t.Fatal("the library shipped site 1 no page")
	}
	if st := n.engines[0].LibraryState(1, 0); st.Busy || st.Writer != 1 {
		t.Fatalf("library after shipping site 1's write grant: %+v, want the cycle committed to site 1", st)
	}
	e2.Fault(1, 0, true, 102, func() {})
	n.settle()
	if e1.segs[1].pages[0].held == nil {
		t.Fatal("site 1 did not hold the KInval that reached it before its page")
	}
	if e2.CheckAccess(1, 0, true) == mmu.NoFault {
		t.Fatal("site 2 holds the page before site 1 had it")
	}

	page.Data[0] = 7
	e1.Deliver(page)
	n.settle()
	if e1.segs[1].pages[0].held != nil {
		t.Fatal("the held KInval is still held after the install")
	}
	if e1.Seg(1).Present(0) || e2.Seg(1).Prot(0) != mmu.ReadWrite || e2.Frame(1, 0)[0] != 7 {
		t.Fatalf("after the held KInval: site 1 present=%v, site 2 %v with byte %d; want site 2 the writer with 7",
			e1.Seg(1).Present(0), e2.Seg(1).Prot(0), e2.Frame(1, 0)[0])
	}
	if st := n.engines[0].LibraryState(1, 0); st.Busy || st.Writer != 2 || st.Clock != 2 {
		t.Fatalf("library state %+v, want site 2 the writer and no cycle open", st)
	}
	n.checkSingleWriter(1, 0)

	// Site 1's page state went writable, then empty, in that order, and
	// it counted the held KInval once.
	var states []int64
	for _, ev := range n.engines[0].obs.Buffer().Events() {
		if ev.Type == obs.EvPageState && ev.Site == 1 {
			states = append(states, ev.Arg)
		}
	}
	if !slices.Equal(states, []int64{int64(mmu.ReadWrite), int64(mmu.Invalid)}) {
		t.Fatalf("site 1's page states %v, want [writable, none]", states)
	}
	if got := e1.Stats().InvalsReceived; got != 1 {
		t.Fatalf("site 1 counted %d invalidations received, want 1", got)
	}
}

func TestSetPageAndSegmentDelta(t *testing.T) {
	n := newTestNet(t, 2, Options{})
	n.newSeg(2, 10*time.Millisecond)
	n.engines[0].SetPageDelta(1, 1, 70*time.Millisecond)
	if n.engines[0].LibraryState(1, 0).Delta != 10*time.Millisecond {
		t.Fatal("page 0 delta changed unexpectedly")
	}
	if n.engines[0].LibraryState(1, 1).Delta != 70*time.Millisecond {
		t.Fatal("page 1 delta not set")
	}
	n.engines[0].SetSegmentDelta(1, 20*time.Millisecond)
	for p := int32(0); p < 2; p++ {
		if n.engines[0].LibraryState(1, p).Delta != 20*time.Millisecond {
			t.Fatal("segment delta not applied")
		}
	}
	n.acquire(1, 1, 1, true)
	if n.engines[1].Seg(1).Aux(1).Window != 20*time.Millisecond {
		t.Fatalf("granted window = %v", n.engines[1].Seg(1).Aux(1).Window)
	}
}

func TestReleaseReaderAndClockHandoff(t *testing.T) {
	n := newTestNet(t, 3, Options{})
	n.newSeg(1, 0)
	n.acquire(1, 1, 0, false)
	n.acquire(2, 1, 0, false)
	n.settle()
	// Clock is site 0 (downgraded library). Release site 0's role is
	// impossible (library); release reader 1 instead.
	n.engines[1].ReleaseSegment(1)
	n.settle()
	st := n.engines[0].LibraryState(1, 0)
	if st.Readers.Has(1) {
		t.Fatal("released reader still recorded")
	}
	if n.engines[1].Seg(1).Present(0) {
		t.Fatal("released site should drop its copy")
	}
	if n.engines[1].Seg(1).Closed() {
		t.Fatal("release not finalized")
	}
}

func TestReleaseWriterReturnsDataToLibrary(t *testing.T) {
	n := newTestNet(t, 2, Options{})
	n.newSeg(1, 0)
	n.acquire(1, 1, 0, true)
	n.engines[1].Frame(1, 0)[3] = 99
	n.engines[1].ReleaseSegment(1)
	n.settle()
	st := n.engines[0].LibraryState(1, 0)
	if st.Writer != 0 || st.Clock != 0 {
		t.Fatalf("library should reclaim: %+v", st)
	}
	if n.engines[0].Frame(1, 0)[3] != 99 {
		t.Fatal("writer's data lost on release")
	}
	if n.engines[0].Seg(1).Prot(0) != mmu.ReadWrite {
		t.Fatal("library should hold the page read-write again")
	}
}

func TestReleaseLastReaderReclaims(t *testing.T) {
	n := newTestNet(t, 2, Options{})
	n.newSeg(1, 0)
	// Move the writable copy to site 1, then downgrade it via a read
	// from site 0... simpler: site 1 becomes sole writer, then library
	// reads (downgrade, clock=1), then site 1 releases: readers {0,1}
	// minus 1 leaves {0}; clock handoff to 0.
	n.acquire(1, 1, 0, true)
	n.engines[1].Frame(1, 0)[0] = 42
	n.acquire(0, 1, 0, false)
	n.settle()
	st := n.engines[0].LibraryState(1, 0)
	if st.Clock != 1 {
		t.Fatalf("clock = %d", st.Clock)
	}
	n.engines[1].ReleaseSegment(1)
	n.settle()
	st = n.engines[0].LibraryState(1, 0)
	if st.Clock != 0 || st.Readers.Has(1) {
		t.Fatalf("after release: %+v", st)
	}
	if n.engines[0].Frame(1, 0)[0] != 42 {
		t.Fatal("data lost")
	}
}

func TestDestroySegmentWakesWaiters(t *testing.T) {
	n := newTestNet(t, 2, Options{})
	n.newSeg(1, time.Hour) // huge window: a write will stall
	n.acquire(1, 1, 0, true)
	woken := false
	n.engines[0].Fault(1, 0, true, 9, func() { woken = true })
	// Destroy before the window ever expires.
	for _, e := range n.engines {
		e.DestroySegment(1)
	}
	n.settle()
	if !woken {
		t.Fatal("waiter not woken on destroy")
	}
	if n.engines[0].Seg(1) != nil || n.engines[1].Seg(1) != nil {
		t.Fatal("segment still attached")
	}
}

func TestStragglersAfterDestroyAreDropped(t *testing.T) {
	n := newTestNet(t, 2, Options{})
	n.newSeg(1, 0)
	n.acquire(1, 1, 0, true)
	// Queue a request whose grant will arrive after destruction.
	n.engines[0].Fault(1, 0, true, 9, func() {})
	n.engines[0].DestroySegment(1)
	n.settle()
	if n.engines[0].Stats().Dropped == 0 {
		t.Fatal("expected dropped stragglers counted")
	}
}

// TestMappedPages: a segment's pages are present at its library from
// creation and at another site once fetched.
func TestMappedPages(t *testing.T) {
	n := newTestNet(t, 2, Options{})
	n.newSeg(4, 0)
	mapped := func(site int) int {
		seg, k := n.engines[site].Seg(1), 0
		for p := 0; p < seg.Pages(); p++ {
			if seg.Present(p) {
				k++
			}
		}
		return k
	}
	if got := mapped(0); got != 4 {
		t.Fatalf("library mapped = %d", got)
	}
	if got := mapped(1); got != 0 {
		t.Fatalf("remote mapped = %d", got)
	}
	n.acquire(1, 1, 2, false)
	if got := mapped(1); got != 1 || !n.engines[1].Seg(1).Present(2) {
		t.Fatalf("after one fetch mapped = %d", got)
	}
}

func TestWindowWaitAccounted(t *testing.T) {
	n := newTestNet(t, 2, Options{Policy: PolicyQueue})
	n.newSeg(1, 60*time.Millisecond)
	n.acquire(1, 1, 0, true)
	n.acquire(0, 1, 0, true)
	if w := n.engines[1].Stats().WindowWait; w < 40*time.Millisecond {
		t.Fatalf("WindowWait = %v, want most of the 60ms window", w)
	}
}

// TestCountAllocFree is the "off is free" gate for the one ledger: with
// no registry an event is an add into the engine's own array, and with
// one (its site's shard touched) still no allocation.
func TestCountAllocFree(t *testing.T) {
	for name, o := range map[string]*obs.Obs{"off": nil, "registry": obs.New()} {
		e := newTestNet(t, 1, Options{Obs: o}).engines[0]
		e.count(obs.CMsgSent)
		if a := testing.AllocsPerRun(1000, func() {
			e.count(obs.CReadFault)
			e.countN(obs.CWindowWait, 40)
		}); a != 0 {
			t.Errorf("%s: count allocates %.1f per event pair", name, a)
		}
		if st := e.Stats(); st.ReadFaults != 1001 || st.WindowWait != 40*1001 {
			t.Errorf("%s: Stats = %d read faults, %v window wait after 1001 pairs", name, st.ReadFaults, st.WindowWait)
		}
		if o != nil && o.Metrics.Get(0, obs.CReadFault) != 1001 {
			t.Errorf("registry saw %d read faults", o.Metrics.Get(0, obs.CReadFault))
		}
	}
}

// silentRelaysRun has site 0 write a page six other sites read, over a
// 2-ary invalidation tree whose two relay roots (sites 1 and 4) take
// their orders and never answer: the mangle turns every aggregated ack
// into a straggler of no cycle, which the clock counts stale. It returns
// the net and every message sent from the write fault on, in order.
func silentRelaysRun(t *testing.T) (*testNet, []string) {
	opt := Options{InvalFanout: 2, Reliability: &Reliability{
		AckTimeout: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond, MaxAttempts: 4}}
	n := newTestNet(t, 7, opt)
	n.newSeg(1, 0)
	for s := 1; s < 7; s++ {
		n.acquire(s, 1, 0, false)
	}
	n.settle()
	var sends []string
	n.mangle = func(to int, m *wire.Msg) {
		if m.Kind == wire.KInvalAck && m.Readers.Count() > 1 {
			m.Cycle = 0
		}
		sends = append(sends, fmt.Sprintf("%d>%d %v %v", m.From, to, m.Kind, m.Readers))
	}
	n.acquire(0, 1, 0, true)
	n.settle()
	return n, sends
}

// TestDelegationWatchdogReissuesInSiteOrder: a relay that has the
// order's transport ack but never sends the protocol's is what the
// delegation watchdog exists for, and no test reached it. It must
// resolve the cycle by reissuing the silent subtrees as unicast — and in
// the same order every run: it ranged a map of subtrees, so with two
// silent ones a simulated run was not a function of its inputs. A
// two-entry map comes out the other way round about one time in eight,
// so the runs are many.
func TestDelegationWatchdogReissuesInSiteOrder(t *testing.T) {
	n, want := silentRelaysRun(t)
	if got := n.engines[0].Stats().Reissued; got != 6 {
		t.Fatalf("clock reissued %d orders, want one to each of the six silent members", got)
	}
	if st := n.engines[0].LibraryState(1, 0); st.Busy || st.Writer != 0 || !st.Readers.Empty() {
		t.Fatalf("cycle did not resolve: library state %+v", st)
	}
	for s, e := range n.engines {
		if st := e.SitePage(1, 0); st != (SitePageState{}) {
			t.Errorf("site %d still tracks %+v", s, st)
		}
	}
	n.checkSingleWriter(1, 0)
	for run := 1; run < 64; run++ {
		if _, got := silentRelaysRun(t); !slices.Equal(got, want) {
			t.Fatalf("run %d sent a different sequence from run 0 (%d vs %d messages)", run, len(got), len(want))
		}
	}
}

// TestRelayGiveUpReissuesCounted: the watchdog's fallback has a twin at
// a relay whose circuit to a child relay gives up, and they are one
// function. Site 0 writes a page sites 1–8 read over a 2-ary tree: relay
// 1 takes {1,2,3,4} and delegates {3,4} to site 3, which is down. When
// that circuit gives up, relay 1 orders site 4 directly — and counts it.
func TestRelayGiveUpReissuesCounted(t *testing.T) {
	opt := Options{InvalFanout: 2, Reliability: &Reliability{
		AckTimeout: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond, MaxAttempts: 4}}
	n := newTestNet(t, 9, opt)
	n.newSeg(1, 0)
	for s := 1; s < 9; s++ {
		n.acquire(s, 1, 0, false)
	}
	n.settle()
	var orders []string
	n.mangle = func(to int, m *wire.Msg) {
		if m.Kind == wire.KInvalOrder && m.From == 1 {
			orders = append(orders, fmt.Sprintf("1>%d %v", to, m.Readers))
		}
	}
	n.crash(3)
	n.engines[0].Fault(1, 0, true, 9, func() {})
	n.settle()
	if got := n.engines[1].Stats().Reissued; got != 1 {
		t.Fatalf("relay 1 reissued %d orders, want 1 (to site 4)", got)
	}
	// The order to site 3 never leaves: a crashed site's traffic is
	// dropped before the mangle sees it.
	if want := []string{"1>2 {2}", "1>4 {}"}; !slices.Equal(orders, want) {
		t.Fatalf("relay 1 sent %q, want %q", orders, want)
	}
	if got := n.engines[0].Stats().Reissued; got != 0 {
		t.Fatalf("clock reissued %d orders; its relays all answered", got)
	}
}

func TestMultiPageIndependence(t *testing.T) {
	// Cycles on different pages do not serialize against each other: a
	// long window on page 0 must not delay page 1.
	n := newTestNet(t, 2, Options{})
	n.newSeg(2, 200*time.Millisecond)
	n.acquire(1, 1, 0, true) // page 0 with long window at site 1
	start := n.k.Now()
	n.acquire(0, 1, 1, true) // page 1: library already holds it
	if n.k.Now().Sub(start) > 10*time.Millisecond {
		t.Fatal("page 1 delayed by page 0's window")
	}
}
