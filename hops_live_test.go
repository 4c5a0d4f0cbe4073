package mirage

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mirage/internal/obs"
	"mirage/internal/transport"
	"mirage/internal/wire"
)

// countingTransport stands between a node and its fabric and counts
// what the node hands over.
type countingTransport struct {
	inner       transport.Transport
	site        int
	total, self *atomic.Int64
}

func (c *countingTransport) Send(to int, m *wire.Msg) error {
	c.total.Add(1)
	if to == c.site {
		c.self.Add(1)
	}
	return c.inner.Send(to, m)
}

func (c *countingTransport) Close() error { return c.inner.Close() }

// TestSelfMessagesStayInNode: with the library co-located with a
// requester, what that site tells itself (its request to the library,
// the library's grant to it) never reaches a Transport, on either
// mesh; the values read and the checked trace are what they were when
// the meshes carried those messages.
func TestSelfMessagesStayInNode(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(map[bool]string{false: "inproc", true: "tcp"}[tcp], func(t *testing.T) {
			c := newTestCluster(t, 2, Options{TCP: tcp, Obs: NewObs(), Check: true})
			var total, self atomic.Int64
			for _, nd := range c.nodes {
				nd := nd
				nd.call(func() {
					nd.tr = &countingTransport{inner: nd.tr, site: nd.site, total: &total, self: &self}
				})
			}
			// Site 0 creates the segment, so it is the library.
			id, err := c.Site(0).Shmget(IPCPrivate, 512, Create, 0o600)
			if err != nil {
				t.Fatal(err)
			}
			var segs [2]*Segment
			for s := range segs {
				if segs[s], err = c.Site(s).Attach(id, false); err != nil {
					t.Fatal(err)
				}
			}
			set := func(s int, v uint32) {
				t.Helper()
				if err := segs[s].SetUint32(0, v); err != nil {
					t.Fatal(err)
				}
			}
			want := func(s int, v uint32) {
				t.Helper()
				got, err := segs[s].Uint32(0)
				if err != nil {
					t.Fatal(err)
				}
				if got != v {
					t.Fatalf("site %d read %d, want %d", s, got, v)
				}
			}
			for i := uint32(0); i < 50; i++ {
				v := 4 * i
				set(1, v)   // remote write fault
				want(0, v)  // read fault at the library's own site
				set(0, v+1) // upgrade at the library's own site
				want(1, v+1)
				set(1, v+2)
				set(0, v+3) // write fault at the library's own site
				want(1, v+3)
			}

			if n := self.Load(); n != 0 {
				t.Fatalf("%d messages with to == from reached the transport", n)
			}
			sent := c.Obs().Metrics.Snapshot().Totals["msgs_sent"]
			if kept := sent - total.Load(); kept <= 0 || total.Load() == 0 {
				t.Fatalf("engines sent %d messages, transports carried %d: want some of each, and some kept in the node",
					sent, total.Load())
			}
			violations, err := c.VerifyTrace()
			if err != nil {
				t.Fatal(err)
			}
			if len(violations) > 0 {
				t.Fatalf("%d violations, first: %v", len(violations), violations[0])
			}
		})
	}
}

// goid names the calling goroutine, from the first line of its stack.
func goid() string {
	var b [64]byte
	return strings.Fields(string(b[:runtime.Stack(b[:], false)]))[1]
}

// goroutineTransport stands between a node and its fabric and notes
// every goroutine a message was handed over on.
type goroutineTransport struct {
	inner transport.Transport
	mu    *sync.Mutex
	on    map[string]int
}

func (g *goroutineTransport) Send(to int, m *wire.Msg) error {
	g.mu.Lock()
	g.on[goid()]++
	g.mu.Unlock()
	return g.inner.Send(to, m)
}

func (g *goroutineTransport) Close() error { return g.inner.Close() }

// TestFaultRunsOnTheFaultingGoroutine: in process, with both sites idle,
// a fault is steps of sites nobody else is running, so the faulting
// goroutine runs every one of them — the request, the library's answer,
// the invalidation and its acknowledgement, the install and the
// completion notice — and every message of the fault is sent from it.
// The actor loops, which before ran each of those steps after a wake,
// send nothing.
func TestFaultRunsOnTheFaultingGoroutine(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	var mu sync.Mutex
	on := map[string]int{}
	for _, nd := range c.nodes {
		nd := nd
		nd.call(func() { nd.tr = &goroutineTransport{inner: nd.tr, mu: &mu, on: on} })
	}
	id, err := c.Site(0).Shmget(IPCPrivate, 512, Create, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	var segs [2]*Segment
	for s := range segs {
		if segs[s], err = c.Site(s).Attach(id, false); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	clear(on) // attaching is not what this test is about
	mu.Unlock()
	for i := uint32(0); i < 20; i++ {
		if err := segs[1].SetUint32(0, i); err != nil { // write fault at the remote site
			t.Fatal(err)
		}
		if v, err := segs[0].Uint32(0); err != nil || v != i { // read fault at the library's site
			t.Fatalf("read %d (err %v), want %d", v, err, i)
		}
		if err := segs[0].SetUint32(0, i); err != nil { // upgrade at the library's site
			t.Fatal(err)
		}
	}
	me := goid()
	mu.Lock()
	defer mu.Unlock()
	if on[me] == 0 || len(on) != 1 {
		t.Fatalf("messages handed over per goroutine %v; want all of them on the faulting goroutine %s", on, me)
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// TestLiveFaultAllocs: an in-process fault between idle sites allocates
// its messages and page data, nothing else. The cycle of
// BenchmarkLiveFaultCycle — an upgrade, a write fault, a read fault — is
// eleven messages (the write fault, shipped by the library, has no
// KInstalled), the two frames installed where a copy had been dropped,
// and the read copy's payload: 14. A closure made only to be run at once
// (the engine's for Exec, the slow path's for its step) costs three or
// more a cycle, and a library queue regrowing one.
func TestLiveFaultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled wakers at random")
	}
	c := newTestCluster(t, 2, Options{})
	id, err := c.Site(0).Shmget(IPCPrivate, 512, Create, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Site(0).Attach(id, false)
	d, _ := c.Site(1).Attach(id, false)
	if _, err := d.Uint32(0); err != nil { // both sites hold a copy
		t.Fatal(err)
	}
	n := uint32(0)
	cycle := func() {
		n++
		if err := a.SetUint32(4, n); err != nil { // upgrade
			t.Fatal(err)
		}
		if err := d.SetUint32(0, ^n); err != nil { // write fault
			t.Fatal(err)
		}
		if v, err := a.Uint32(0); err != nil || v != ^n { // read fault
			t.Fatalf("read fault = %#x (err %v), want %#x", v, err, ^n)
		}
	}
	cycle() // warm: the pooled waker, the queues' arrays
	if allocs := testing.AllocsPerRun(200, cycle); allocs > 14 {
		t.Fatalf("an in-process fault cycle allocates %.1f times, want at most 14", allocs)
	}
}

// TestFaultStepRunsOnTheTurnHolder: an access that faults at a busy site
// leaves its step — the waker's, with the page it wants — for whoever
// holds the site's turn, and sleeps; a ReadAt across two absent pages
// then rewrites the waker for its second round once the first has
// answered. Run it under -race: the waker's arguments are shared
// between the accessor and the holder by nothing but that order.
func TestFaultStepRunsOnTheTurnHolder(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	const pages = 16
	id, err := c.Site(0).Shmget(IPCPrivate, pages*512, Create, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	lib, _ := c.Site(0).Attach(id, false)
	seg, _ := c.Site(1).Attach(id, false)
	for p := 0; p < pages; p++ { // a page's first word and its last
		if err := lib.SetUint32(p*512, 100+uint32(p)); err != nil {
			t.Fatal(err)
		}
		if err := lib.SetUint32(p*512+508, uint32(p)); err != nil {
			t.Fatal(err)
		}
	}
	nd := c.nodes[1]
	var mu sync.Mutex
	on := map[string]int{}
	nd.call(func() { nd.tr = &goroutineTransport{inner: nd.tr, mu: &mu, on: on} })
	buf := make([]byte, 8)
	for p := 0; p < pages; p += 2 {
		holder := make(chan string)
		go nd.run(loopItem{fn: func() {
			holder <- goid()
			// Hold the turn until the accessor's first step is queued.
			deadline := time.Now().Add(5 * time.Second)
			for queued := 0; queued == 0 && time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
				nd.mu.Lock()
				queued = len(nd.ops)
				nd.mu.Unlock()
			}
		}})
		hid := <-holder
		if err := seg.ReadAt(buf, p*512+508); err != nil { // the last word of p, the first of p+1
			t.Fatal(err)
		}
		last, first := binary.LittleEndian.Uint32(buf), binary.LittleEndian.Uint32(buf[4:])
		if last != uint32(p) || first != 101+uint32(p) {
			t.Fatalf("pages %d and %d: read %d and %d, want %d and %d", p, p+1, last, first, p, 101+p)
		}
		mu.Lock()
		ran := on[hid]
		mu.Unlock()
		if ran == 0 {
			t.Fatalf("page %d: the turn's holder sent none of the fault's messages (%v)", p, on)
		}
	}
}

// sendCounter is a tracer that counts the messages the engines send,
// and the KInstalled notices among them.
type sendCounter struct{ all, installed atomic.Int64 }

func (c *sendCounter) Emit(ev obs.Event) {
	if ev.Type == obs.EvMsgSend {
		c.all.Add(1)
		if ev.Kind == wire.KInstalled {
			c.installed.Add(1)
		}
	}
}

// TestLibraryShippedWriteSendsNoInstalled: a write fault on a page
// library site 0 holds is three messages on either mesh — the request,
// the library's KInval to itself and the page — because a write grant
// the library ships itself is complete when it is sent, and its grantee
// sends no KInstalled. A read grant and an upgrade, whose copy or grant
// comes from site 1, still send one each.
func TestLibraryShippedWriteSendsNoInstalled(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(map[bool]string{false: "inproc", true: "tcp"}[tcp], func(t *testing.T) {
			sent := new(sendCounter)
			c := newTestCluster(t, 2, Options{TCP: tcp, Obs: &Obs{Tracer: sent}})
			id, err := c.Site(0).Shmget(IPCPrivate, 512, Create, 0o600)
			if err != nil {
				t.Fatal(err)
			}
			lib, _ := c.Site(0).Attach(id, false)
			seg, _ := c.Site(1).Attach(id, false)
			for _, step := range []struct {
				name            string
				do              func() error
				msgs, installed int64
			}{
				{"write fault at site 1", func() error { return seg.SetUint32(0, 1) }, 3, 0},
				{"read fault at site 0", func() error { _, err := lib.Uint32(0); return err }, 4, 1},
				{"upgrade at site 0", func() error { return lib.SetUint32(0, 2) }, 4, 1},
			} {
				all, installed := sent.all.Load(), sent.installed.Load()
				if err := step.do(); err != nil {
					t.Fatalf("%s: %v", step.name, err)
				}
				all, installed = sent.all.Load()-all, sent.installed.Load()-installed
				if all != step.msgs || installed != step.installed {
					t.Errorf("%s: %d messages, %d of them KInstalled; want %d and %d",
						step.name, all, installed, step.msgs, step.installed)
				}
			}
		})
	}
}

// TestTurnKeepsSenderOrder: steps land on one site from several
// goroutines at once — straight, from inside a step of another site,
// and posted for the loop — and run one at a time, each once, every
// sender's in the order sent, whichever goroutine holds the turn. Run
// it under -race: the steps share state with no lock of its own, so
// only the turn orders them.
func TestTurnKeepsSenderOrder(t *testing.T) {
	a, b := newNode(0, time.Now()), newNode(1, time.Now())
	a.startLoop()
	b.startLoop()
	defer a.close()
	defer b.close()
	const senders, per = 6, 400
	next := make([]int, senders) // b's steps alone touch these
	ran := 0
	var bad []string
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				step := func() {
					if next[s] != i {
						bad = append(bad, fmt.Sprintf("sender %d: step %d ran after %d", s, i, next[s]-1))
					}
					next[s] = i + 1
					ran++
				}
				switch {
				case s%3 == 1:
					a.run(loopItem{fn: func() { b.run(loopItem{fn: step}) }})
				case s%3 == 2 && i%7 == 0:
					b.queue(loopItem{fn: step})
				default:
					b.run(loopItem{fn: step})
				}
			}
		}(s)
	}
	wg.Wait()
	a.call(func() {}) // a's steps have handed theirs to b
	var got int
	var gotBad []string
	b.call(func() { got, gotBad = ran, bad })
	if len(gotBad) > 0 {
		t.Fatalf("order broken: %v", gotBad[0])
	}
	if got != senders*per {
		t.Fatalf("ran %d steps, want %d", got, senders*per)
	}
}

// goroutinesSettled returns the process's goroutine count once it has
// stopped moving (an earlier test's goroutines may still be exiting).
func goroutinesSettled() int {
	n := runtime.NumGoroutine()
	for same := 0; same < 10; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, same = m, 0
		} else {
			same++
		}
	}
	return n
}

// goroutinesReach polls until the process runs want goroutines, and
// returns the last count read.
func goroutinesReach(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n == want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClusterGoroutines: an open in-process cluster runs one goroutine
// per site — the actor loop; the mesh has none — and Close, on either
// mesh, leaves none behind.
func TestClusterGoroutines(t *testing.T) {
	const n = 4
	for _, tcp := range []bool{false, true} {
		t.Run(map[bool]string{false: "inproc", true: "tcp"}[tcp], func(t *testing.T) {
			before := goroutinesSettled()
			c, err := NewCluster(n, Options{TCP: tcp})
			if err != nil {
				t.Fatal(err)
			}
			if !tcp {
				if open := goroutinesReach(before + n); open != before+n {
					c.Close()
					t.Fatalf("open cluster of %d sites runs %d goroutines, want %d (one loop a site)", n, open-before, n)
				}
			}
			// Traffic, so that the TCP mesh has dialled its circuits.
			id, err := c.Site(0).Shmget(IPCPrivate, 512, Create, 0o600)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < n; s++ {
				seg, err := c.Site(s).Attach(id, false)
				if err != nil {
					t.Fatal(err)
				}
				if err := seg.SetUint32(0, uint32(s)); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if after := goroutinesReach(before); after != before {
				t.Fatalf("%d goroutines before NewCluster, %d after Close", before, after)
			}
		})
	}
}

// TestCancelledTimerNeverRuns: core.Env.After promises that a cancel on
// the engine's goroutine, before fn started, means fn never runs. The
// hard case for a live node is a timer that has already fired into the
// inbox and sits there behind the loop item that cancels it.
func TestCancelledTimerNeverRuns(t *testing.T) {
	n := newNode(0, time.Now())
	n.startLoop()
	defer n.close()
	ran := false // loop-side, read after the drain below
	n.call(func() {
		cancel := nodeEnv{n}.After(time.Millisecond, func() { ran = true })
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			n.mu.Lock()
			queued := len(n.ops)
			n.mu.Unlock()
			if queued > 0 {
				break // the fire is in the inbox, behind this item
			}
			if time.Now().After(deadline) {
				t.Error("timer never fired into the inbox")
				break
			}
		}
		cancel()
	})
	n.call(func() {}) // drain: the fire was queued before this
	if ran {
		t.Fatal("a timer cancelled on the loop, before its function started, ran it")
	}
}
