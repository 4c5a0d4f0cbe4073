package check

import (
	"testing"
	"time"

	"mirage/internal/chaos"
	"mirage/internal/core"
	"mirage/internal/obs"
)

// fastAutoDelta opens the controller's rate limiter up so the short
// driven workloads retune several times inside the trace.
func fastAutoDelta() *core.AutoDelta {
	return &core.AutoDelta{
		Min: 2 * time.Millisecond, Max: 100 * time.Millisecond,
		Step: 5 * time.Millisecond, CheapDenial: time.Second,
		MinCycles: 1, Cooldown: time.Millisecond,
	}
}

// TestVerifyAcceptsAutoDeltaMigratedTrace: a controller-tuned workload
// that crosses a voluntary migration (epoch bump) must verify clean
// with Delta = AutoDelta.Min, the sound lower bound on every granted
// window (check.Config.Delta). The trace must actually contain retunes
// — a clean pass over a controller that never fired proves nothing.
func TestVerifyAcceptsAutoDeltaMigratedTrace(t *testing.T) {
	// A deliberately oversized seed Δ, so the trace carries retunes and
	// denials for the checker to digest.
	h := drive(t, Scenario{Sites: 3, Pages: 2, Delta: 30 * time.Millisecond,
		Options: core.Options{Placement: migrating(), AutoDelta: fastAutoDelta()}})

	// The 2:1 skew that makes site 0's library volunteer the role to
	// site 1, under ping-pong writes the controller is shrinking Δ for.
	for i := 0; i < 40 && h.engines[1].Stats().Migrations == 0; i++ {
		h.access(t, 0, 0, true, byte(i))
		h.access(t, 1, 0, false, 0)
		h.access(t, 1, 0, true, byte(i)+1)
	}
	if h.engines[1].Stats().Migrations != 1 {
		t.Fatal("workload did not trigger a migration")
	}
	// Post-handoff traffic: the successor keeps tuning in epoch 1.
	h.access(t, 2, 0, false, 0)
	h.access(t, 0, 0, true, 99)
	h.access(t, 2, 0, false, 0)
	h.k.Run()

	events := h.order.Buffer().Events()
	if countEvents(events, obs.EvMigrate) == 0 {
		t.Fatal("trace has no EvMigrate event")
	}
	if countEvents(events, obs.EvRetune) == 0 {
		t.Fatal("trace has no EvRetune event; the controller never fired")
	}
	h.verify(t, "AutoDelta migrated trace")
}

// TestVerifyAcceptsAutoDeltaTakeoverTrace: same bound, other rehoming
// path — the leader dies mid-tuning, the replicated log elects a
// successor (epoch bump), and the whole history including the
// post-takeover tuned grants must verify clean with Delta = Min.
func TestVerifyAcceptsAutoDeltaTakeoverTrace(t *testing.T) {
	h := drive(t, Scenario{Sites: 3, Pages: 2, Delta: 30 * time.Millisecond,
		Options: core.Options{
			Failover:    &core.Failover{},
			Replication: &core.Replication{Replicas: 2},
			AutoDelta:   fastAutoDelta(),
		}})

	for i := 0; i < 8; i++ {
		h.access(t, 2, 0, true, byte(i))
		h.access(t, 1, 0, true, byte(i)+1)
	}
	h.k.Run()

	// The library crashes now, for good.
	h.inj = chaos.New(chaos.Plan{Crashes: []chaos.Crash{{Site: 0, From: h.k.Now().Duration()}}})
	// Site 2 was invalidated by site 1's last write: this access gives
	// up on the dead library and triggers the takeover at site 1.
	h.access(t, 2, 0, false, 0)
	h.access(t, 2, 0, true, 123)
	h.access(t, 1, 0, false, 0)
	h.k.Run()

	if el := h.engines[1].Stats().Elections; el != 1 {
		t.Fatalf("successor Elections = %d, want 1", el)
	}
	events := h.order.Buffer().Events()
	if countEvents(events, obs.EvElect) == 0 {
		t.Fatal("trace has no EvElect event")
	}
	if countEvents(events, obs.EvRetune) == 0 {
		t.Fatal("trace has no EvRetune event; the controller never fired")
	}
	h.verify(t, "AutoDelta takeover trace")
}

// TestVerifyAutoDeltaSetterTrace: Config.Delta = AutoDelta.Min stays a
// sound bound when SetSegmentDelta and SetPageDelta write a Δ outside
// the band between grants — the controller clamps what it grants, not
// only what it tunes (internal/core's TestAutoDeltaBandHoldsAcrossSetters
// reads the installed windows; this is the same history through the
// window invariant). The writes alternate one hop apart, so a window
// shorter than Min is revoked inside it.
func TestVerifyAutoDeltaSetterTrace(t *testing.T) {
	ad := &core.AutoDelta{Min: 10 * time.Millisecond, Max: 40 * time.Millisecond, MinCycles: 1, Cooldown: time.Hour}
	h := drive(t, Scenario{Sites: 3, Pages: 2, Delta: 20 * time.Millisecond, Options: core.Options{AutoDelta: ad}})
	lib := h.engines[0]
	val := byte(0)
	pingpong := func() {
		for i := 0; i < 3; i++ {
			val++
			h.access(t, 1, 0, true, val)
			val++
			h.access(t, 2, 0, true, val)
		}
		h.k.Run()
	}
	pingpong()
	for _, d := range []time.Duration{0, time.Second} {
		if err := lib.SetSegmentDelta(scenarioSeg, d); err != nil {
			t.Fatal(err)
		}
		pingpong()
		if err := lib.SetPageDelta(scenarioSeg, 0, d); err != nil {
			t.Fatal(err)
		}
		pingpong()
	}
	h.verify(t, "the trace at Delta = Min")
}
