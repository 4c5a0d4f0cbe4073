package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func runSim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-policy", "nope"},
		{"-workload", "nope"},
		{"-runs", "0"},
		{"-workload", "readers", "-sites", "1"},
		{"-chaos", "drop q=banana"},
	} {
		if code, _, stderr := runSim(t, args...); code != 2 {
			t.Errorf("args %v: code %d (stderr %q), want 2", args, code, stderr)
		}
	}
}

func TestCountersRun(t *testing.T) {
	code, stdout, stderr := runSim(t, "-workload", "counters", "-delta", "600ms", "-dur", "2s")
	if code != 0 {
		t.Fatalf("code %d, stderr %s", code, stderr)
	}
	for _, want := range []string{"workload=counters", "read-write insn/s", "network:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q:\n%s", want, stdout)
		}
	}
}

func TestCheckedRunClean(t *testing.T) {
	code, stdout, stderr := runSim(t, "-workload", "counters", "-delta", "600ms", "-dur", "2s", "-check")
	if code != 0 {
		t.Fatalf("coherence check failed: code %d\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "coherence check:") || !strings.Contains(stdout, "clean") {
		t.Errorf("check verdict missing:\n%s", stdout)
	}
}

func TestCheckedPingPongWithWindow(t *testing.T) {
	code, stdout, stderr := runSim(t, "-workload", "pingpong", "-delta", "33ms", "-dur", "2s", "-check")
	if code != 0 {
		t.Fatalf("coherence check failed: code %d\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "clean") {
		t.Errorf("check verdict missing:\n%s", stdout)
	}
}

func TestAutoDeltaCheckedRun(t *testing.T) {
	// A ping-pong run seeded at a deliberately large Δ: the controller
	// must shrink it (the Δ-grows/Δ-shrinks table is non-trivial) and
	// the retuned trace must verify clean at the Min bound.
	code, stdout, stderr := runSim(t,
		"-workload", "pingpong", "-delta", "100ms", "-dur", "3s",
		"-autodelta", "-check")
	if code != 0 {
		t.Fatalf("autodelta run check failed: code %d\n%s%s", code, stdout, stderr)
	}
	for _, want := range []string{"Δ-shrinks", "clean"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q:\n%s", want, stdout)
		}
	}
	if !regexp.MustCompile(`(?m)^0\s+\d+\s+[1-9]\d*$`).MatchString(stdout) {
		t.Errorf("library site should report at least one Δ-shrink:\n%s", stdout)
	}
}

func TestCheckedChaosRun(t *testing.T) {
	code, stdout, stderr := runSim(t,
		"-workload", "counters", "-delta", "120ms", "-dur", "2s",
		"-chaos", "drop p=0.05; dup p=0.1; delay p=0.2 max=5ms", "-chaos-seed", "7",
		"-check")
	if code != 0 {
		t.Fatalf("chaos run check failed: code %d\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "chaos plan:") {
		t.Errorf("chaos stats missing:\n%s", stdout)
	}
}

func TestFailoverCheckedRun(t *testing.T) {
	// Crash the library mid-run: the survivor elects itself successor,
	// the workload completes, and the multi-epoch trace verifies clean.
	code, stdout, stderr := runSim(t,
		"-workload", "counters", "-dur", "4s",
		"-chaos", "crash site=0 from=2s", "-failover", "-check")
	if code != 0 {
		t.Fatalf("failover run check failed: code %d\n%s%s", code, stdout, stderr)
	}
	for _, want := range []string{"failovers", "clean"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q:\n%s", want, stdout)
		}
	}
	if !regexp.MustCompile(`(?m)^1\s+1\s+1\s+0\s+0\s+0$`).MatchString(stdout) {
		t.Errorf("site 1 should report one failover and one recovery:\n%s", stdout)
	}
}

func TestServiceRun(t *testing.T) {
	// -runs 2 puts the rung headline plus the per-shard store digest
	// through the determinism comparison; -metrics shows the app
	// counters reached the registry.
	code, stdout, stderr := runSim(t,
		"-workload", "service", "-sites", "4", "-rate", "25", "-dur", "2s",
		"-runs", "2", "-metrics")
	if code != 0 {
		t.Fatalf("code %d\n%s%s", code, stdout, stderr)
	}
	for _, want := range []string{"identical results: true", "workload=service",
		"goodput", "liveness=true", "store (per shard):", "app_ops"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q:\n%s", want, stdout)
		}
	}
}

func TestServiceBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "service", "-skew", "nope"},
		{"-workload", "service", "-rate", "-3"},
		{"-workload", "service", "-sites", "0"},
	} {
		if code, _, stderr := runSim(t, args...); code != 2 {
			t.Errorf("args %v: code %d (stderr %q), want 2", args, code, stderr)
		}
	}
}

func TestParallelRunsIdentical(t *testing.T) {
	code, stdout, stderr := runSim(t, "-workload", "counters", "-delta", "600ms", "-dur", "1s", "-runs", "3", "-check")
	if code != 0 {
		t.Fatalf("code %d\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "identical results: true") {
		t.Errorf("determinism check missing:\n%s", stdout)
	}
}

func TestTraceFile(t *testing.T) {
	tr := filepath.Join(t.TempDir(), "run.jsonl")
	code, stdout, stderr := runSim(t,
		"-workload", "counters", "-delta", "600ms", "-dur", "1s",
		"-trace", tr, "-metrics")
	if code != 0 {
		t.Fatalf("code %d, stderr %s", code, stderr)
	}
	for _, want := range []string{"protocol trace:", "metrics registry:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q:\n%s", want, stdout)
		}
	}
	if fi, err := os.Stat(tr); err != nil || fi.Size() == 0 {
		t.Errorf("artifact %s missing or empty: %v", tr, err)
	}
}

// TestTablesSameWithAndWithoutMetrics: the per-site tables are views of
// the engines' own counters, so attaching the registry (-metrics) may
// add the registry dump and nothing else — and what the dump says of a
// counter is what the table says of its field.
func TestTablesSameWithAndWithoutMetrics(t *testing.T) {
	for _, scenario := range [][]string{
		{"-workload", "counters", "-delta", "120ms", "-dur", "3s"},
		{"-workload", "readers", "-sites", "3", "-dur", "4s", "-chaos", "crash site=0 from=2s", "-failover"},
	} {
		code, plain, stderr := runSim(t, scenario...)
		if code != 0 {
			t.Fatalf("%v: code %d, stderr %s", scenario, code, stderr)
		}
		code, full, stderr := runSim(t, append(scenario, "-metrics")...)
		if code != 0 {
			t.Fatalf("%v -metrics: code %d, stderr %s", scenario, code, stderr)
		}
		tables, dump, ok := strings.Cut(full, "\nmetrics registry:\n")
		if !ok {
			t.Fatalf("%v -metrics: no registry dump:\n%s", scenario, full)
		}
		if tables != plain {
			t.Errorf("%v: tables differ with -metrics:\n--- without\n%s\n--- with\n%s", scenario, plain, tables)
		}
		// Site 1's read faults, by both routes (the dump omits zeros).
		row := regexp.MustCompile(`(?m)^1 +(\d+) `).FindStringSubmatch(plain)
		dumped := "0"
		if m := regexp.MustCompile(`(?m)^read_faults .*site1=(\d+)`).FindStringSubmatch(dump); m != nil {
			dumped = m[1]
		}
		if row == nil || row[1] != dumped {
			t.Errorf("%v: site 1 read faults: table row %v, registry %s", scenario, row, dumped)
		}
	}
}
