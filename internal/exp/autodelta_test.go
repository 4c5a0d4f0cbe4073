package exp

import (
	"bytes"
	"testing"
	"time"
)

// quickAutoDelta is the CI-sized E23 config: a three-point grid and
// short windows, still long enough for the controller's production
// cooldown (three clock ticks) to fire many times.
func quickAutoDelta() AutoDeltaConfig {
	return AutoDeltaConfig{
		Ticks:       []int{0, 2, 6},
		PingPongDur: 6 * time.Second,
		ServiceDur:  2 * time.Second,
		AffinityDur: 6 * time.Second,
	}
}

// TestAutoDeltaSweep runs the quick E23 grid and asserts the properties
// the findings rely on: the controller actually retunes on every
// workload, matches the best fixed Δ within tolerance, every cell's
// trace verifies clean, and the sweep replays deterministically.
// Virtual-time and seeded: a failure is a regression, not noise.
func TestAutoDeltaSweep(t *testing.T) {
	r := AutoDeltaSweep(quickAutoDelta())
	if len(r.Workloads) != 3 {
		t.Fatalf("workloads: got %d, want 3", len(r.Workloads))
	}
	for _, wl := range r.Workloads {
		if wl.Auto.Score == 0 {
			t.Errorf("%s: controller cell scored 0", wl.Workload)
		}
		if wl.Auto.Grows+wl.Auto.Shrinks == 0 || wl.Auto.Retunes == 0 {
			t.Errorf("%s: controller never adjusted (grows=%d shrinks=%d retunes=%d)",
				wl.Workload, wl.Auto.Grows, wl.Auto.Shrinks, wl.Auto.Retunes)
		}
		if !wl.AutoMatchesBest {
			best := wl.Fixed[wl.BestFixed]
			t.Errorf("%s: auto score %.1f below best fixed Δ=%d ticks (%.1f)",
				wl.Workload, wl.Auto.Score, best.DeltaTicks, best.Score)
		}
		for _, p := range append(wl.Fixed, wl.Auto) {
			for _, v := range p.Violations {
				t.Errorf("%s Δ=%d ticks: coherence violation: %v", wl.Workload, p.DeltaTicks, v)
			}
		}
	}
	// The affinity controller cell must exercise the rehoming path the
	// tuned state ships through.
	if aff := r.Workloads[2]; aff.Auto.Migrations == 0 {
		t.Errorf("affinity controller cell never migrated")
	}
	if !r.ReplayMatches {
		t.Errorf("replay determinism violated: identical controller runs scored differently")
	}
}

// TestAutoDeltaFindings exercises the findings renderer.
func TestAutoDeltaFindings(t *testing.T) {
	r := AutoDeltaSweep(AutoDeltaConfig{
		Ticks:       []int{0, 6},
		PingPongDur: time.Second,
		ServiceDur:  time.Second,
		AffinityDur: 4 * time.Second,
	})
	var buf bytes.Buffer
	r.WriteFindings(&buf)
	out := buf.String()
	for _, want := range []string{"E23", "[pingpong]", "[service]", "[affinity]",
		"auto matches best fixed", "traced run clean"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("findings missing %q:\n%s", want, out)
		}
	}
}
