package exp

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mirage/internal/app"
	"mirage/internal/core"
	"mirage/internal/ipc"
	"mirage/internal/load"
	"mirage/internal/obs"
)

// The short two-rung ladder: one rung well under the simulated
// cluster's ~250 req/s capacity, one far over it.
func shortServiceConfig() ServiceConfig {
	return ServiceConfig{Rates: []float64{25, 400}, Duration: 2 * time.Second}
}

func TestServiceSweepShortLadder(t *testing.T) {
	cfg := shortServiceConfig()
	cfg.Chaos = true
	r := ServiceSweep(cfg)
	if len(r.Ladders) != 2 {
		t.Fatalf("got %d ladders, want sim and sim+chaos", len(r.Ladders))
	}
	for _, l := range r.Ladders {
		name := l.Transport
		if l.Chaos {
			name += "+chaos"
		}
		if len(l.Rungs) != 2 {
			t.Fatalf("[%s] %d rungs, want 2", name, len(l.Rungs))
		}
		low, high := l.Rungs[0], l.Rungs[1]
		if low.Completed == 0 {
			t.Fatalf("[%s] low rung completed nothing", name)
		}
		if !low.LivenessOK || low.Shed != 0 {
			t.Errorf("[%s] low rung must be healthy: %+v", name, low)
		}
		if !high.Saturated(cfg.Spec(high.Rate)) {
			t.Errorf("[%s] 400 req/s rung should saturate: %+v", name, high)
		}
		if l.Knee != 1 {
			t.Errorf("[%s] knee = %d, want 1", name, l.Knee)
		}
		if !l.LivenessBelowKnee {
			t.Errorf("[%s] liveness below knee must hold", name)
		}
		if l.App.Ops() == 0 {
			t.Errorf("[%s] no store attribution", name)
		}
	}
	if !r.ReplayMatches {
		t.Fatal("determinism double-run diverged")
	}
}

func TestServiceFindingsRender(t *testing.T) {
	r := ServiceSweep(shortServiceConfig())
	var buf bytes.Buffer
	r.WriteFindings(&buf)
	out := buf.String()
	for _, want := range []string{"E19", "Hypothesis", "knee: rung 1", "[sim]",
		"liveness below knee: HOLDS", "trace check: "} {
		if !strings.Contains(out, want) {
			t.Errorf("findings missing %q:\n%s", want, out)
		}
	}
}

func TestScoreLadder(t *testing.T) {
	cfg := ServiceConfig{}.WithDefaults()
	ok := load.Rung{Rate: 50, Offered: 250, Admitted: 250, Completed: 250,
		Goodput: 50, LivenessOK: true}
	sat := load.Rung{Rate: 400, Offered: 2000, Admitted: 1500, Shed: 500,
		Completed: 1500, Goodput: 300, LivenessOK: true}
	l := ScoreLadder("live-tcp", false, cfg, []load.Rung{ok, sat})
	if l.Knee != 1 {
		t.Fatalf("knee = %d, want 1", l.Knee)
	}
	if !l.LivenessBelowKnee {
		t.Fatal("liveness below knee should hold")
	}
	if l.FirstSLO != -1 {
		t.Fatalf("FirstSLO = %d, want -1 (no latency recorded)", l.FirstSLO)
	}
}

// TestServiceLadderTracesVerify: every rung of the no-chaos ladder is
// traced and verified by the sweep harness, and none of them breaks an
// invariant. (The chaos ladder's top rung does: FINDINGS E32.)
func TestServiceLadderTracesVerify(t *testing.T) {
	r := ServiceSweep(shortServiceConfig())
	if l := r.Ladders[0]; l.Chaos || l.Events == 0 || l.Violations != 0 {
		t.Fatalf("no-chaos ladder: chaos=%v, %d events verified, %d violations; want a clean trace",
			l.Chaos, l.Events, l.Violations)
	}
}

// RunService is also the miragesim -service workload; check it runs on
// a caller-owned cluster and feeds obs counters.
func TestSpawnServiceOnCallerCluster(t *testing.T) {
	cfg := ServiceConfig{Duration: 2 * time.Second}.WithDefaults()
	o := obs.New()
	c := ipc.NewCluster(cfg.Sites, ipc.Config{Engine: core.Options{Obs: o}})
	stats := app.NewStats(storeShards)
	g := RunService(c, cfg, 25, stats, o)
	if g.Completed == 0 || !g.LivenessOK {
		t.Fatalf("unhealthy rung: %+v", g)
	}
	ops := o.Metrics.Total(obs.CAppOp)
	// Execute issues two store calls per CAS, so obs ops ≥ completions.
	if ops < g.Completed {
		t.Fatalf("obs app_ops %d < completed %d", ops, g.Completed)
	}
	if stats.Total().Ops() != ops {
		t.Fatalf("stats ops %d != obs ops %d", stats.Total().Ops(), ops)
	}
}
