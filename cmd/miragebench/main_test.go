package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runBench(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestBadFlag(t *testing.T) {
	if code, _, _ := runBench(t, "-nope"); code != 2 {
		t.Fatalf("bad flag: code %d, want 2", code)
	}
}

func TestUnknownExperimentRunsNothing(t *testing.T) {
	code, stdout, _ := runBench(t, "-e", "e99")
	if code != 0 {
		t.Fatalf("code %d", code)
	}
	if strings.Contains(stdout, "== ") {
		t.Errorf("unknown id ran an experiment:\n%s", stdout)
	}
}

func TestE2ModelTable(t *testing.T) {
	// E2 is pure model arithmetic plus one short simulation: fast and
	// deterministic, a good smoke test for the table plumbing.
	code, stdout, stderr := runBench(t, "-e", "e2", "-quick")
	if code != 0 {
		t.Fatalf("code %d, stderr %s", code, stderr)
	}
	for _, want := range []string{"== E2 —", "TOTAL (component sum)", "wall"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q:\n%s", want, stdout)
		}
	}
}

func TestE17ModelCheck(t *testing.T) {
	code, stdout, stderr := runBench(t, "-e", "e17", "-quick")
	if code != 0 {
		t.Fatalf("E17 found violations or failed: code %d\n%s%s", code, stdout, stderr)
	}
	for _, want := range []string{"== E17 —", "complete", "random walk under chaos:", "0 violations"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "violation:") {
		t.Errorf("unexpected violations:\n%s", stdout)
	}
}

func TestE18FailoverSweepCommand(t *testing.T) {
	out := filepath.Join(t.TempDir(), "e18.jsonl")
	code, stdout, stderr := runBench(t, "-e", "e18", "-quick", "-trace", out)
	if code != 0 {
		t.Fatalf("E18 failed: code %d\n%s%s", code, stdout, stderr)
	}
	for _, want := range []string{"== E18 —", "recoveries", "replay determinism: HOLDS",
		"all multi-epoch traces verify coherent", "trace (2 crashes): "} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "violation") {
		t.Errorf("unexpected violations:\n%s", stdout)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Errorf("trace file not written: %v", err)
	}
}

func TestE19ServiceLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock live ladder")
	}
	out := filepath.Join(t.TempDir(), "e19.json")
	code, stdout, stderr := runBench(t, "-e", "e19", "-quick", "-out", out)
	if code != 0 {
		t.Fatalf("E19 failed: code %d\n%s%s", code, stdout, stderr)
	}
	for _, want := range []string{"== E19 —", "[sim]", "[sim+chaos]", "[live-tcp]",
		"knee: rung 1", "liveness below knee: HOLDS", "replay determinism: HOLDS"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q:\n%s", want, stdout)
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rec benchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("record is not valid JSON: %v", err)
	}
	if rec.Service == nil || len(rec.Service.Ladders) != 3 {
		t.Fatalf("record service section = %+v", rec.Service)
	}
	sim := rec.Service.Ladders[0]
	if sim.KneeRung != 1 || sim.P99AtHalfKnee <= 0 {
		t.Errorf("sim ladder knee = %+v", sim)
	}
	if !rec.Service.ReplayMatches {
		t.Error("replay determinism violated")
	}
}

func TestE23AutoDeltaCommand(t *testing.T) {
	code, stdout, stderr := runBench(t, "-e", "e23", "-quick")
	if code != 0 {
		t.Fatalf("E23 failed: code %d\n%s%s", code, stdout, stderr)
	}
	for _, want := range []string{"== E23 —", "[pingpong]", "[service]", "[affinity]",
		"auto matches best fixed: HOLDS", "traced run clean: HOLDS",
		"replay determinism: HOLDS"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "VIOLATED") {
		t.Errorf("unexpected violated verdict:\n%s", stdout)
	}
}

func TestOutRecord(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	code, stdout, stderr := runBench(t, "-e", "e2", "-quick", "-out", out)
	if code != 0 {
		t.Fatalf("code %d, stderr %s", code, stderr)
	}
	if !strings.Contains(stdout, "benchmark record:") {
		t.Errorf("record path not reported:\n%s", stdout)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rec benchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("record is not valid JSON: %v", err)
	}
	if len(rec.Experiments) != 1 || rec.Experiments[0].ID != "e2" {
		t.Errorf("record experiments = %+v", rec.Experiments)
	}
}
