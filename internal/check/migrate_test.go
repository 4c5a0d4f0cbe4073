package check

import (
	"testing"
	"time"

	"mirage/internal/core"
	"mirage/internal/mem"
	"mirage/internal/obs"
	"mirage/internal/sim"
)

// migNet is a minimal deterministic cluster for driving a voluntary
// migration and feeding its full trace to the checker. The scenario
// harness (harness.go) issues ops concurrently, which makes demand
// windows timing-sensitive; this driver sequences accesses explicitly
// so the 2:1 demand skew — and therefore the handoff — is guaranteed.
type migNet struct {
	t       *testing.T
	k       *sim.Kernel
	engines []*core.Engine
}

type migEnv struct {
	n    *migNet
	site int
}

func (e migEnv) Site() int          { return e.site }
func (e migEnv) Now() time.Duration { return e.n.k.Now().Duration() }
func (e migEnv) After(d time.Duration, fn func()) func() {
	t := e.n.k.After(d, fn)
	return func() { t.Cancel() }
}
func (e migEnv) Send(to int, m core.NetMsg) {
	d := time.Millisecond
	if to == e.site {
		d = 0
	}
	e.n.k.After(d, func() { e.n.engines[to].Deliver(m) })
}
func (e migEnv) Exec(cost time.Duration, fn func()) { e.n.k.After(cost, fn) }

func newMigNet(t *testing.T, sites int, o *obs.Obs) *migNet {
	n := &migNet{t: t, k: sim.NewKernel()}
	opt := core.Options{
		Costs: &core.Costs{},
		Sites: sites,
		Reliability: &core.Reliability{
			AckTimeout: 20 * time.Millisecond, MaxBackoff: 100 * time.Millisecond,
			MaxAttempts: 5, RequestTimeout: 10 * time.Second,
		},
		Failover: &core.Failover{},
		Placement: &core.Placement{
			Window: 50 * time.Millisecond, MinRequests: 4,
			Share: 0.5, PingPong: 0.8, Cooldown: time.Hour,
		},
		Obs: o,
	}
	for i := 0; i < sites; i++ {
		n.engines = append(n.engines, core.New(migEnv{n, i}, opt))
	}
	meta := &mem.Segment{
		ID: 1, Key: 7, Size: 1024, PageSize: 512, Pages: 2,
		Library: 0, Mode: 0o666,
	}
	n.engines[0].CreateSegment(meta)
	for i := 1; i < sites; i++ {
		n.engines[i].AttachSegment(meta)
	}
	return n
}

func (n *migNet) access(site int, page int32, write bool, val byte) {
	n.t.Helper()
	op := Op{Site: site, Page: page, Write: write, Val: val}
	done := false
	var loop func()
	loop = func() {
		var err error
		if done, err = tryOp(n.engines[site], op, loop); err != nil {
			n.t.Fatalf("site %d degraded: %v", site, err)
		}
	}
	loop()
	for !done {
		if !n.k.Step() {
			n.t.Fatalf("site %d access(page=%d write=%v) starved", site, page, write)
		}
	}
}

// TestVerifyAcceptsMigratedTrace drives a real two-epoch history — a
// skewed workload that makes the library volunteer the role to its
// hottest writer, then post-handoff traffic including a straggler that
// slept through the switch — and requires the checker to pass it, with
// the commit visible as EvMigrate.
func TestVerifyAcceptsMigratedTrace(t *testing.T) {
	o := obs.New()
	n := newMigNet(t, 3, o)

	// Site 0's writes invalidate site 1, which pays a read fault plus an
	// upgrade per round: 2:1 demand for site 1 at the library.
	for i := 0; i < 40; i++ {
		n.access(0, 0, true, byte(i))
		n.access(1, 0, false, 0)
		n.access(1, 0, true, byte(i)+1)
	}
	if n.engines[1].Stats().Migrations != 1 {
		t.Fatal("workload did not trigger a migration")
	}
	// Straggler: site 2 still believes epoch 0 / library 0; its request
	// is fenced by the deposed library and re-aimed at the successor.
	n.access(2, 0, false, 0)
	// Post-handoff coherence traffic under the new library.
	n.access(0, 0, true, 99)
	n.access(2, 0, false, 0)
	n.k.Run()

	events := o.Buffer().Events()
	sawMigrate := false
	for _, ev := range events {
		if ev.Type == obs.EvMigrate {
			sawMigrate = true
		}
	}
	if !sawMigrate {
		t.Fatal("trace has no EvMigrate event")
	}
	if n.engines[0].Stats().StaleEpoch == 0 {
		t.Error("deposed library never fenced the straggler")
	}
	for _, v := range Verify(Config{Sites: 3, Reliable: true}, events) {
		t.Errorf("checker rejected migrated trace: %v", v)
	}
}

// TestVerifyStillCatchesViolationsAcrossMigration guards against the
// migrate hook silencing the checker: a fabricated double-write after
// a migration event must still be reported.
func TestVerifyStillCatchesViolationsAcrossMigration(t *testing.T) {
	base := time.Millisecond
	events := []obs.Event{
		{T: 1 * base, Site: 1, Type: obs.EvMigrate, Seg: 1, Epoch: 1, Arg: 0},
		{T: 2 * base, Site: 0, Type: obs.EvPageState, Seg: 1, Page: 0, Epoch: 1, Arg: 2},
		{T: 2 * base, Site: 2, Type: obs.EvPageState, Seg: 1, Page: 0, Epoch: 1, Arg: 2},
	}
	if len(Verify(Config{Sites: 3, Reliable: true}, events)) == 0 {
		t.Error("two concurrent writable copies after EvMigrate went unreported")
	}
}
