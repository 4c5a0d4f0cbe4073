package core

import (
	"testing"
	"time"

	"mirage/internal/obs"
)

// migOptions enables the full voluntary-migration stack with an
// aggressive policy so a short driven workload crosses the thresholds:
// small windows, low demand floor, and an hour-long cooldown so a test
// sees at most one move per segment per site.
func migOptions(o *obs.Obs) Options {
	return Options{
		Reliability: &Reliability{
			AckTimeout: 20 * time.Millisecond, MaxBackoff: 100 * time.Millisecond,
			MaxAttempts: 5, RequestTimeout: 10 * time.Second,
		},
		Placement: &Placement{
			Window: 50 * time.Millisecond, MinRequests: 4,
			Share: 0.5, PingPong: 0.8, Cooldown: time.Hour,
		},
		Obs: o,
	}
}

// driveSkew generates 2:1 demand for site 1 over site 0 on one page:
// site 0's write invalidates site 1, which then pays a read fault plus
// an upgrade — two library requests for site 0's one.
func driveSkew(n *testNet, seg int32, loops int) {
	for i := 0; i < loops; i++ {
		n.acquire(0, seg, 0, true)
		n.acquire(1, seg, 0, false)
		n.acquire(1, seg, 0, true)
	}
}

func TestMigrationRehomesLibrary(t *testing.T) {
	o := obs.New()
	n := newTestNet(t, 3, migOptions(o))
	n.newSeg(2, 0)

	driveSkew(n, 1, 40)
	n.settle()

	if got := n.engines[1].Stats().Migrations; got != 1 {
		t.Fatalf("site 1 accepted %d migrations, want exactly 1", got)
	}
	for _, e := range []int{0, 1} {
		if lib := n.engines[e].segs[1].curLib; lib != 1 {
			t.Errorf("site %d believes library is %d, want 1", e, lib)
		}
		if ep := n.engines[e].segs[1].segEpoch.Load(); ep != 1 {
			t.Errorf("site %d at epoch %d, want 1", e, ep)
		}
	}
	if n.engines[0].segs[1].lib != nil {
		t.Error("deposed library still holds the segment record")
	}
	if n.engines[1].segs[1].lib == nil {
		t.Error("successor holds no segment record")
	}
	if r := n.engines[0].Stats().MigrationsRefused; r != 0 {
		t.Errorf("MigrationsRefused = %d, want 0", r)
	}
	if c := o.Metrics.Hist(obs.HMigrateLatency).Count(); c != 1 {
		t.Errorf("migrate_latency_ns has %d samples, want 1", c)
	}
	if got := o.Metrics.Total(obs.CMigration); got != 1 {
		t.Errorf("migrations counter = %d, want 1", got)
	}

	// The handoff commit must be visible in the trace exactly once.
	// (Checker verification of migration traces lives in internal/check,
	// which cannot be imported from here — its harness imports core.)
	migrates := 0
	for _, ev := range o.Buffer().Events() {
		if ev.Type == obs.EvMigrate {
			migrates++
			if ev.Site != 1 || ev.Arg != 0 || ev.Epoch != 1 {
				t.Errorf("EvMigrate site=%d arg=%d epoch=%d, want 1/0/1", ev.Site, ev.Arg, ev.Epoch)
			}
		}
	}
	if migrates != 1 {
		t.Fatalf("trace has %d EvMigrate events, want 1", migrates)
	}
}

// TestMigrationFencesStaleLibraryBelief: a site that slept through the
// handoff still addresses the old library; the deposed site fences the
// stale-epoch request with a redirect and the straggler lands at the
// successor.
func TestMigrationFencesStaleLibraryBelief(t *testing.T) {
	o := obs.New()
	n := newTestNet(t, 3, migOptions(o))
	n.newSeg(2, 0)

	// Site 2 never participates, so its view stays epoch 0 / library 0.
	driveSkew(n, 1, 40)
	n.settle()
	if n.engines[1].Stats().Migrations != 1 {
		t.Fatal("migration did not happen; fencing scenario not reached")
	}
	if lib := n.engines[2].segs[1].curLib; lib != 0 {
		t.Fatalf("site 2 already rehomed to %d; wanted a stale view", lib)
	}

	fencedBefore := n.engines[0].Stats().StaleEpoch
	n.acquire(2, 1, 0, false)
	n.settle()

	if got := n.engines[0].Stats().StaleEpoch; got <= fencedBefore {
		t.Errorf("deposed library fenced nothing (StaleEpoch %d -> %d)", fencedBefore, got)
	}
	if lib := n.engines[2].segs[1].curLib; lib != 1 {
		t.Errorf("straggler rehomed to %d, want 1", lib)
	}
	if ep := n.engines[2].segs[1].segEpoch.Load(); ep != 1 {
		t.Errorf("straggler at epoch %d, want 1", ep)
	}
}

// TestMigrationPingPongRefused: two sites alternating writes on the
// same page split the demand window evenly; the ping-pong guard must
// keep the library where it is.
func TestMigrationPingPongRefused(t *testing.T) {
	n := newTestNet(t, 3, migOptions(nil))
	n.newSeg(2, 0)

	for i := 0; i < 40; i++ {
		n.acquire(1, 1, 0, true)
		n.acquire(2, 1, 0, true)
	}
	n.settle()

	for s, e := range n.engines {
		if got := e.Stats().Migrations; got != 0 {
			t.Errorf("site %d: %d migrations under ping-pong sharing, want 0", s, got)
		}
	}
	if lib := n.engines[0].segs[1].curLib; lib != 0 {
		t.Errorf("library moved to %d under ping-pong sharing", lib)
	}
}

// TestMigrationDisabledWithoutPlacement: the demand tracker must stay
// inert when Options.Placement is nil.
func TestMigrationDisabledWithoutPlacement(t *testing.T) {
	opt := migOptions(nil)
	opt.Placement = nil
	n := newTestNet(t, 3, opt)
	n.newSeg(2, 0)

	driveSkew(n, 1, 20)
	n.settle()

	if sn := n.engines[0].segs[1]; sn.place != nil || sn.curLib != 0 {
		t.Errorf("placement state tracked while disabled: place=%v curLib=%d", sn.place, sn.curLib)
	}
}
