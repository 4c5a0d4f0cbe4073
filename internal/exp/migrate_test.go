package exp

import (
	"bytes"
	"testing"
	"time"
)

// TestMigrationSweep runs the full E21 grid on the default config and
// asserts the properties the E21 findings rely on: the on-cells
// actually migrate, their traces (the handoffs among them) pass the
// coherence checker, the sweep replays deterministically, and under the
// shifting hotspot migration beats the static baseline on p99 or
// goodput. The sim is virtual-time and seeded, so the numbers are
// bit-for-bit reproducible — a failure here is a real regression, not
// noise.
func TestMigrationSweep(t *testing.T) {
	r := MigrationSweep(MigrationConfig{})
	if len(r.Points) != 4 {
		t.Fatalf("points: got %d, want 4", len(r.Points))
	}
	for _, scenario := range []string{"skewed", "shifting"} {
		off, on := r.Cell(scenario, false), r.Cell(scenario, true)
		if off == nil || on == nil {
			t.Fatalf("%s: missing cells", scenario)
		}
		if off.Migrations != 0 {
			t.Errorf("%s off-cell migrated %d times with no policy", scenario, off.Migrations)
		}
		if on.Migrations == 0 {
			t.Errorf("%s on-cell never migrated", scenario)
		}
		if on.Rung.Completed == 0 {
			t.Errorf("%s on-cell completed no ops", scenario)
		}
	}
	if !r.ReplayMatches {
		t.Errorf("replay determinism violated: identical runs scored differently")
	}
	if h := r.Cell("shifting", true).Handoffs; h < 1 {
		t.Errorf("traced shifting+on run has %d EvMigrate commits, want >= 1", h)
	}

	// The shifting scenario is the one migration exists for: the run
	// starts matched and the hotspot moves, so the static baseline pays
	// remote faults for the whole second half.
	off, on := r.Cell("shifting", false), r.Cell("shifting", true)
	better := on.Rung.Latency.P99 < off.Rung.Latency.P99 || on.Rung.Goodput > off.Rung.Goodput
	if !better {
		t.Errorf("shifting: migration did not win (off p99=%v goodput=%.1f; on p99=%v goodput=%.1f)",
			time.Duration(off.Rung.Latency.P99), off.Rung.Goodput,
			time.Duration(on.Rung.Latency.P99), on.Rung.Goodput)
	}

	// The voluntary handoffs must not cost coherence: every on-cell's
	// full event stream, spanning its EvMigrate epoch bumps, verifies
	// clean, and so does the skewed off-cell. The shifting off-cell does
	// not at this size: with no crash planned, its overloaded second half
	// makes the ARQ layer give up on live libraries and failover elects
	// successors beside them (FINDINGS E32, ROADMAP item 6).
	for _, p := range r.Points {
		if p.Scenario == "shifting" && !p.Placement {
			t.Logf("shifting off-cell: %d violations (FINDINGS E32)", len(p.Violations))
			continue
		}
		for _, v := range p.Violations {
			t.Errorf("%s placement=%v: coherence violation: %v", p.Scenario, p.Placement, v)
		}
	}
}

// TestMigrationFindings exercises the findings renderer and checks the
// verdict lines it prints are derived from the cells it reports.
func TestMigrationFindings(t *testing.T) {
	r := MigrationSweep(MigrationConfig{Duration: 4 * time.Second})
	var buf bytes.Buffer
	r.WriteFindings(&buf)
	out := buf.String()
	for _, want := range []string{"E21", "[skewed]", "[shifting]", "traced handoffs in shifting+on run"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("findings missing %q:\n%s", want, out)
		}
	}
}
