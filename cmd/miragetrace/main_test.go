package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mirage/internal/obs"
	"mirage/internal/wire"
)

// writeTrace serializes events to a temp JSONL trace file.
func writeTrace(t *testing.T, sites int, events []obs.Event) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(f, obs.NewHeader(obs.ClockVirtual, sites), events); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// sharingTrace is a tiny coherent history: site 0 creates a page with a
// write copy, grant 1 downgrades it so site 1 can read.
func sharingTrace() []obs.Event {
	return []obs.Event{
		{T: 0, Type: obs.EvPageState, Site: 0, Seg: 1, Page: 0, Arg: 2},
		{T: 1 * time.Millisecond, Type: obs.EvFault, Site: 1, Seg: 1, Page: 0},
		{T: 1 * time.Millisecond, Type: obs.EvMsgRecv, Kind: wire.KReadReq, Site: 0, Seg: 1, Page: 0, From: 1, To: 0},
		{T: 1 * time.Millisecond, Type: obs.EvGrantStart, Site: 0, Seg: 1, Page: 0, Cycle: 1},
		{T: 2 * time.Millisecond, Type: obs.EvDowngrade, Site: 0, Seg: 1, Page: 0, Cycle: 1},
		{T: 3 * time.Millisecond, Type: obs.EvPageState, Site: 1, Seg: 1, Page: 0, Cycle: 1, Arg: 1},
		{T: 3 * time.Millisecond, Type: obs.EvGrantEnd, Site: 0, Seg: 1, Page: 0, Cycle: 1},
	}
}

// twoWriterTrace violates single-writer exclusion: both sites install
// write copies with no invalidation between.
func twoWriterTrace() []obs.Event {
	return []obs.Event{
		{T: 0, Type: obs.EvPageState, Site: 0, Seg: 1, Page: 0, Arg: 2},
		{T: 1 * time.Millisecond, Type: obs.EvGrantStart, Site: 0, Seg: 1, Page: 0, Cycle: 1},
		{T: 2 * time.Millisecond, Type: obs.EvPageState, Site: 1, Seg: 1, Page: 0, Cycle: 1, Arg: 2},
		{T: 2 * time.Millisecond, Type: obs.EvGrantEnd, Site: 0, Seg: 1, Page: 0, Cycle: 1},
	}
}

func runTrace(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUsage(t *testing.T) {
	if code, _, stderr := runTrace(t); code != 2 || !strings.Contains(stderr, "usage:") {
		t.Fatalf("bare invocation: code %d, stderr %q", code, stderr)
	}
	if code, _, _ := runTrace(t, "help"); code != 2 {
		t.Fatal("help should exit 2")
	}
}

func TestSummarize(t *testing.T) {
	path := writeTrace(t, 2, sharingTrace())
	code, stdout, stderr := runTrace(t, "summarize", path)
	if code != 0 {
		t.Fatalf("code %d, stderr %s", code, stderr)
	}
	if !strings.Contains(stdout, "2 sites") {
		t.Errorf("summary missing header info:\n%s", stdout)
	}
	// The reference view (§9.0): sharingTrace's one read request, as the
	// library received it.
	for _, want := range []string{"library reference log", "requests", "dominant", "mean gap", "site 1 (100%)"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("summary missing %q:\n%s", want, stdout)
		}
	}
}

func TestTimeline(t *testing.T) {
	path := writeTrace(t, 2, sharingTrace())
	code, stdout, _ := runTrace(t, "timeline", "-page", "0", path)
	if code != 0 {
		t.Fatalf("code %d", code)
	}
	if len(strings.Split(strings.TrimSpace(stdout), "\n")) < 4 {
		t.Errorf("timeline too short:\n%s", stdout)
	}
}

func TestChromeExport(t *testing.T) {
	path := writeTrace(t, 2, sharingTrace())
	out := filepath.Join(t.TempDir(), "out.json")
	code, stdout, stderr := runTrace(t, "chrome", "-o", out, path)
	if code != 0 {
		t.Fatalf("code %d, stderr %s", code, stderr)
	}
	if !strings.Contains(stdout, out) {
		t.Errorf("chrome output path not reported:\n%s", stdout)
	}
	if data, err := os.ReadFile(out); err != nil || !strings.Contains(string(data), "traceEvents") {
		t.Errorf("chrome file bad: %v", err)
	}
}

func TestDenialsEmpty(t *testing.T) {
	path := writeTrace(t, 2, sharingTrace())
	code, stdout, _ := runTrace(t, "denials", path)
	if code != 0 || !strings.Contains(stdout, "no Δ-window denials") {
		t.Fatalf("code %d:\n%s", code, stdout)
	}
}

func TestCheckCoherentTrace(t *testing.T) {
	path := writeTrace(t, 2, sharingTrace())
	code, stdout, stderr := runTrace(t, "check", path)
	if code != 0 {
		t.Fatalf("coherent trace flagged: code %d\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "coherent: no invariant violations") {
		t.Errorf("missing verdict:\n%s", stdout)
	}
	if !strings.Contains(stdout, "no op records") {
		t.Errorf("missing op-record note:\n%s", stdout)
	}
}

func TestCheckFlagsViolations(t *testing.T) {
	path := writeTrace(t, 2, twoWriterTrace())
	code, stdout, stderr := runTrace(t, "check", path)
	if code != 1 {
		t.Fatalf("two-writer trace passed: code %d\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "single-writer") {
		t.Errorf("violation invariant not named:\n%s", stdout)
	}
	if !strings.Contains(stderr, "violation(s)") {
		t.Errorf("stderr missing count: %s", stderr)
	}
}

func TestCheckMissingFile(t *testing.T) {
	if code, _, _ := runTrace(t, "check", filepath.Join(t.TempDir(), "nope.jsonl")); code != 1 {
		t.Fatalf("missing file: code %d, want 1", code)
	}
}

// TestDenials: the trace's remaining times print as the registry's
// denial_remaining_ns histogram, one row per power-of-two bucket.
func TestDenials(t *testing.T) {
	var events []obs.Event
	for _, rem := range []time.Duration{3 * time.Millisecond, 5 * time.Millisecond, 6 * time.Millisecond} {
		events = append(events, obs.Event{Type: obs.EvDeltaDeny, Site: 1, Seg: 1, Arg: int64(rem)})
	}
	path := writeTrace(t, 2, events)
	code, stdout, stderr := runTrace(t, "denials", path)
	if code != 0 {
		t.Fatalf("code %d, stderr %s", code, stderr)
	}
	for _, want := range []string{"denial_remaining_ns: n=3 mean=4.666666ms", "≤4.194304ms", "≤8.388608ms"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("denials output missing %q:\n%s", want, stdout)
		}
	}
	if code, _, _ := runTrace(t, "denials", "-buckets", "3", path); code != 2 {
		t.Errorf("-buckets accepted (code %d); the layout has no knob", code)
	}
}
