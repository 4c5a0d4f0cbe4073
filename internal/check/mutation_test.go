//go:build mirage_mutation

package check

import (
	"bytes"
	"testing"

	"mirage/internal/core"
)

// TestMutationWindowViolationCaught is the detector-of-detectors: the
// build tag mirage_mutation flips core's mutateSkipWindowCheck, making
// the clock site honor invalidations inside an unexpired Δ window. The
// explorer must catch that as a window-revoked-early violation and hand
// back a shrunk, replayable counterexample.
//
// Run it alone — the tag breaks the protocol, so the package's other
// tests rightly fail under it:
//
//	go test -tags mirage_mutation ./internal/check -run TestMutation
//
// TestMutationReplAckLostCaught targets the other lie the tag enables:
// core's mutateReplAckWithoutApply makes replica followers acknowledge
// log appends without applying them, so the leader's gated mutations
// "commit" against logs that hold nothing. When the leader crashes, the
// election merges empty ballots and installs a log tail behind the
// committed high-water mark — exactly what the acked-append-lost
// invariant exists to catch, with a replayable counterexample.
//
// Run it alone, like the window test:
//
//	go test -tags mirage_mutation ./internal/check -run TestMutation
func TestMutationReplAckLostCaught(t *testing.T) {
	res := Exhaustive(replScenario(), ExploreOpts{MaxRuns: 200})
	if res.Counterexample == nil {
		t.Fatalf("mutation not caught in %d runs", res.Runs)
	}
	wantInv(t, res.Violations, InvApplyLost)

	r := *res.Counterexample
	t.Logf("counterexample: ops=%v choices=%v", r.Scenario.Ops, r.Choices)

	// The repro must replay byte-identically and still show the bug.
	a, b := r.Replay(), r.Replay()
	if a.TraceSHA != b.TraceSHA {
		t.Fatalf("replay diverged: %s vs %s", a.TraceSHA, b.TraceSHA)
	}
	wantInv(t, a.Violations, InvApplyLost)

	// And survive the serialization round trip CI artifacts go through.
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRepro(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c := dec.Replay()
	if c.TraceSHA != a.TraceSHA {
		t.Fatal("decoded repro replays a different trace")
	}
	wantInv(t, c.Violations, InvApplyLost)
}

func TestMutationWindowViolationCaught(t *testing.T) {
	res := Exhaustive(windowScenario(), ExploreOpts{MaxRuns: 200})
	if res.Counterexample == nil {
		t.Fatalf("mutation not caught in %d runs", res.Runs)
	}
	wantInv(t, res.Violations, InvWindow)

	r := *res.Counterexample
	t.Logf("counterexample: ops=%v choices=%v", r.Scenario.Ops, r.Choices)
	if len(r.Scenario.Ops) > 2 {
		t.Errorf("shrink left %d ops, want <=2 (one write to own the window, one to revoke it)",
			len(r.Scenario.Ops))
	}

	// The repro must replay byte-identically and still show the bug.
	a, b := r.Replay(), r.Replay()
	if a.TraceSHA != b.TraceSHA {
		t.Fatalf("replay diverged: %s vs %s", a.TraceSHA, b.TraceSHA)
	}
	wantInv(t, a.Violations, InvWindow)

	// And survive the serialization round trip CI artifacts go through.
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRepro(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c := dec.Replay()
	if c.TraceSHA != a.TraceSHA {
		t.Fatal("decoded repro replays a different trace")
	}
	wantInv(t, c.Violations, InvWindow)
}

// TestMutationLeftWriteOutstandingCaught: with core's
// MutateLeaveWriteOutstanding on, a requester that installs a write
// grant keeps its write request marked outstanding. One write is enough:
// it completes, the trace is clean, and only the engine's record of the
// page shows what was left behind — which the site-page-idle final check
// must report.
func TestMutationLeftWriteOutstandingCaught(t *testing.T) {
	core.MutateLeaveWriteOutstanding = true
	defer func() { core.MutateLeaveWriteOutstanding = false }()
	sc := Scenario{Sites: 2, Pages: 1, Options: core.Options{Policy: core.PolicyQueue}, Ops: []Op{{Site: 1, Write: true, Val: 7}}}
	res := Exhaustive(sc, ExploreOpts{MaxRuns: 50})
	if res.Counterexample == nil {
		t.Fatalf("mutation not caught in %d runs", res.Runs)
	}
	wantInv(t, res.Violations, InvIdlePage)
}

// TestMutationEventAfterWordCaught: with core's MutateEventAfterWord on,
// every install traces the page's new state after the word has published
// it. The trace is byte for byte what it was — only the page-event-order
// check, reading the word as the event goes out, can tell — so the first
// schedule of a single write must show it, and so must every replay.
func TestMutationEventAfterWordCaught(t *testing.T) {
	core.MutateEventAfterWord = true
	defer func() { core.MutateEventAfterWord = false }()
	sc := Scenario{Sites: 2, Pages: 1, Options: core.Options{Policy: core.PolicyQueue}, Ops: []Op{{Site: 1, Write: true, Val: 7}}}
	res := Exhaustive(sc, ExploreOpts{MaxRuns: 1})
	if res.Counterexample == nil {
		t.Fatalf("mutation not caught in %d runs", res.Runs)
	}
	wantInv(t, res.Violations, InvEventOrder)
	t.Logf("caught: %v", res.Violations[0])
	for _, v := range res.Violations {
		if v.Invariant != InvEventOrder {
			t.Errorf("the swap shows as %v too: the trace was meant to be unchanged", v)
		}
	}
}

// TestMutationOvertakenInvalCaught: with core's MutateRunOvertakenInval
// on, a grantee runs a KInval that overtook its write grant's page at
// once. It has no copy to invalidate, so the engine panics; the explorer
// must find the order that delivers the KInval first and hand back a
// replayable repro of the panic.
func TestMutationOvertakenInvalCaught(t *testing.T) {
	core.MutateRunOvertakenInval = true
	defer func() { core.MutateRunOvertakenInval = false }()
	res := Exhaustive(overtakeScenario(), ExploreOpts{MaxRuns: 200})
	if res.Counterexample == nil {
		t.Fatalf("mutation not caught in %d runs", res.Runs)
	}
	wantInv(t, res.Violations, InvPanic)
	r := *res.Counterexample
	t.Logf("counterexample: ops=%v choices=%v: %v", r.Scenario.Ops, r.Choices, res.Violations[0])
	if a := r.Replay(); len(a.Violations) == 0 || a.Violations[0].Invariant != InvPanic {
		t.Fatalf("replay shows %v, want the panic", a.Violations)
	}
}
