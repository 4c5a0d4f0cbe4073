package chaos

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"mirage/internal/netsim"
	"mirage/internal/sim"
	"mirage/internal/transport"
	"mirage/internal/wire"
)

func samplePlan() Plan {
	return Plan{
		Seed: 42,
		Rules: []Rule{
			{Op: OpDrop, P: 0.1, From: Any, To: Any, Kind: wire.KPageSend},
			{Op: OpDup, P: 0.05, From: 1, To: Any, Copies: 1},
			{Op: OpDelay, P: 0.3, From: Any, To: Any, MinDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond},
			{Op: OpDelay, P: 0.2, From: Any, To: 2, MaxDelay: 5 * time.Millisecond},
		},
		Partitions: []Partition{
			{Sites: []int{1, 2}, From: 2 * time.Second, Until: 3 * time.Second},
			{Sites: []int{1}, From: 4 * time.Second, Until: 4500 * time.Millisecond},
		},
	}
}

func TestPlanStringParseRoundTrip(t *testing.T) {
	p := samplePlan()
	s := p.String()
	got, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	// Copies defaults to 1 on parse; normalize the original the same way.
	want := p
	if got.String() != s {
		t.Fatalf("re-serialization differs:\n got %q\nwant %q", got.String(), s)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("parsed plan differs:\n got %+v\nwant %+v", *got, want)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, s := range []string{
		"drop p=2",
		"drop q=0.1",
		"warp p=0.1",
		"delay p=0.1 min=5ms max=1ms",
		"partition from=1s",
		"partition site=1 from=1s",
		"crash from=1s",
		"crash sites=1 from=1s",
		"crash site=1,2 from=1s",
		"dup copies=0 p=0.1",
		"drop p=0.1 kind=bogus",
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

// TestCheckSites: every site a plan names must be one of the cluster's;
// Any and a nil plan name none.
func TestCheckSites(t *testing.T) {
	for _, tc := range []struct {
		plan string
		ok   bool
	}{
		{"drop p=0.1; delay p=0.2 max=1ms", true},
		{"drop p=0.1 from=2 to=0; partition sites=0,2 from=1s", true},
		{"crash site=2 from=1s", true},
		{"crash site=3 from=1s", false},
		{"partition sites=0,3 from=1s", false},
		{"drop p=0.1 from=3", false},
		{"dup p=0.1 to=7", false},
		{"drop p=0.1 from=-2", false},
	} {
		p, err := Parse(tc.plan)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.plan, err)
		}
		if err := p.CheckSites(3); (err == nil) != tc.ok {
			t.Errorf("CheckSites(3) of %q = %v, want ok=%v", tc.plan, err, tc.ok)
		}
	}
	if err := (*Plan)(nil).CheckSites(1); err != nil {
		t.Errorf("nil plan: %v", err)
	}
}

// TestSameSeedSameSchedule is the replayability contract: identical
// plans produce identical decision sequences for identical inputs.
func TestSameSeedSameSchedule(t *testing.T) {
	mkSeq := func(seed int64) []Action {
		in := New(Plan{Seed: seed, Rules: samplePlan().Rules})
		var out []Action
		for i := 0; i < 500; i++ {
			from, to := i%3, (i+1)%3
			kind := wire.Kinds()[i%len(wire.Kinds())]
			out = append(out, in.Apply(time.Duration(i)*time.Millisecond, from, to, kind))
		}
		return out
	}
	a, b := mkSeq(7), mkSeq(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := mkSeq(8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

func TestWindows(t *testing.T) {
	in := New(samplePlan())
	// Partition 1,2 vs rest during [2s,3s): 0<->1 cut, 1<->2 inside.
	if a := in.Apply(2500*time.Millisecond, 0, 1, wire.KReadReq); !a.Drop {
		t.Fatal("partition did not cut 0->1")
	}
	if a := in.Apply(2500*time.Millisecond, 2, 1, wire.KReadReq); a.Drop {
		t.Fatal("partition cut traffic inside the isolated set")
	}
	if a := in.Apply(3500*time.Millisecond, 0, 1, wire.KReadReq); a.Drop {
		t.Fatal("partition outlived its window")
	}
	// Site 1 alone cut off (crashed) during [4s,4.5s): everything
	// touching 1 drops.
	if a := in.Apply(4200*time.Millisecond, 0, 1, wire.KReadReq); !a.Drop {
		t.Fatal("crash did not drop traffic to the dead site")
	}
	if a := in.Apply(4200*time.Millisecond, 1, 0, wire.KReadReq); !a.Drop {
		t.Fatal("crash did not drop traffic from the dead site")
	}
	if a := in.Apply(4200*time.Millisecond, 0, 2, wire.KReadReq); a.Drop {
		t.Fatal("crash dropped traffic between live sites")
	}
	st := in.Stats()
	if st.Partitioned != 3 {
		t.Fatalf("window counters: %+v", st)
	}
}

func TestRuleCountersAndCompose(t *testing.T) {
	in := New(Plan{Seed: 3, Rules: []Rule{
		{Op: OpDrop, P: 1, From: Any, To: Any, Kind: wire.KPageSend},
		{Op: OpDelay, P: 1, From: Any, To: Any, MinDelay: 2 * time.Millisecond, MaxDelay: 2 * time.Millisecond},
		{Op: OpDup, P: 1, From: Any, To: Any, Copies: 2},
	}})
	a := in.Apply(0, 0, 1, wire.KReadReq)
	if a.Drop || a.Delay != 2*time.Millisecond || a.Dup != 2 {
		t.Fatalf("compose: %+v", a)
	}
	a = in.Apply(0, 0, 1, wire.KPageSend)
	if !a.Drop || a.Delay != 0 || a.Dup != 0 {
		t.Fatalf("drop must win: %+v", a)
	}
	st := in.Stats()
	if st.Rules[0].Matched != 1 || st.Rules[0].Applied != 1 {
		t.Fatalf("drop rule counters: %+v", st.Rules[0])
	}
	if st.Rules[1].Matched != 2 || st.Rules[1].Applied != 2 {
		t.Fatalf("delay rule counters: %+v", st.Rules[1])
	}
}

// TestNetworkReplayDeterminism wires the injector into a simulated
// network twice with the same seed and asserts bit-identical delivery
// traces — the sim-mode acceptance criterion.
func TestNetworkReplayDeterminism(t *testing.T) {
	type delivery struct {
		at   time.Duration
		to   int
		kind wire.Kind
	}
	run := func(seed int64) ([]delivery, netsim.Stats, Stats) {
		k := sim.NewKernel()
		net := netsim.New(k, 3)
		in := New(Plan{Seed: seed, Rules: []Rule{
			{Op: OpDrop, P: 0.2, From: Any, To: Any},
			{Op: OpDup, P: 0.2, From: Any, To: Any, Copies: 1},
			{Op: OpDelay, P: 0.5, From: Any, To: Any, MaxDelay: 10 * time.Millisecond},
		}})
		WrapNetwork(net, in, func() time.Duration { return k.Now().Duration() })
		var got []delivery
		for s := 0; s < 3; s++ {
			s := s
			net.Bind(netsim.SiteID(s), func(m netsim.Message) {
				got = append(got, delivery{k.Now().Duration(), s, m.Payload.(*wire.Msg).Kind})
			})
		}
		kinds := wire.Kinds()
		for i := 0; i < 200; i++ {
			m := &wire.Msg{Kind: kinds[i%len(kinds)]}
			net.Send(netsim.Message{From: netsim.SiteID(i % 3), To: netsim.SiteID((i + 1) % 3), Payload: m})
		}
		k.Run()
		return got, net.Stats(), in.Stats()
	}
	g1, n1, s1 := run(99)
	g2, n2, s2 := run(99)
	if !reflect.DeepEqual(g1, g2) || n1 != n2 || !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed did not replay the identical fault schedule")
	}
	if n1.Dropped == 0 || n1.Duplicated == 0 {
		t.Fatalf("plan injected nothing: %+v", n1)
	}
	if n1.Delivered != n1.Sent-n1.Dropped+n1.Duplicated {
		t.Fatalf("delivery accounting: %+v", n1)
	}
}

// TestDelayedSendAfterClose: a delayed copy is resent from a timer
// goroutine, which may fire after the fabric was closed. It must find
// the fabric closed — no delivery, no panic — and while the fabric is
// open it must be subject to the plan even when a site addresses
// itself (the live node never sends such a message here, so there is no
// bypass to keep).
func TestDelayedSendAfterClose(t *testing.T) {
	const delay = 30 * time.Millisecond
	var delivered atomic.Int64
	count := func(*wire.Msg) { delivered.Add(1) }
	mesh := transport.NewInprocMesh([]transport.Handler{count, count})
	in := New(Plan{Seed: 1, Rules: []Rule{
		{Op: OpDelay, P: 1, From: Any, To: Any, MinDelay: delay, MaxDelay: delay},
	}})
	start := time.Now()
	ft := WrapTransport(mesh.Site(0), in, 0, func() time.Duration { return time.Since(start) })

	for _, to := range []int{1, 0} {
		if err := ft.Send(to, &wire.Msg{Kind: wire.KReadReq}); err != nil {
			t.Fatal(err)
		}
	}
	if n := delivered.Load(); n != 0 {
		t.Fatalf("%d messages delivered before their delay", n)
	}
	if d := in.Stats().Decisions; d != 2 {
		t.Fatalf("injector saw %d messages, want 2 (a self-addressed one included)", d)
	}
	if err := ft.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * delay)
	if n := delivered.Load(); n != 0 {
		t.Fatalf("%d delayed messages delivered after Close", n)
	}
}
