package check

import (
	"testing"
	"time"

	"mirage/internal/core"
	"mirage/internal/obs"
)

// drive builds the scenario's harness for a test that issues its
// accesses one at a time, in FIFO order at every same-instant tie. A
// driven test sequences its accesses so a demand skew, and so a
// handoff, is guaranteed where concurrent ops would make it
// timing-sensitive.
func drive(t *testing.T, sc Scenario) *harness {
	t.Helper()
	h, err := newHarness(sc, &scheduler{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// access runs one op through the harness's access loop and steps the
// kernel until it is done; a degraded or starved op fails the test.
func (h *harness) access(t *testing.T, site int, page int32, write bool, val byte) {
	t.Helper()
	failed, want := h.failed, h.done+h.failed+1
	h.startSite(site, []Op{{Site: site, Page: page, Write: write, Val: val}})
	for h.done+h.failed < want {
		if !h.k.Step() {
			t.Fatalf("site %d access(page=%d write=%v) starved", site, page, write)
		}
	}
	if h.failed > failed {
		t.Fatalf("site %d access(page=%d write=%v) degraded", site, page, write)
	}
}

// verify fails the test on every violation the finished run shows.
func (h *harness) verify(t *testing.T, what string) {
	t.Helper()
	for _, v := range h.check() {
		t.Errorf("checker rejected %s: %v", what, v)
	}
}

func countEvents(events []obs.Event, typ obs.EvType) int {
	c := 0
	for _, ev := range events {
		if ev.Type == typ {
			c++
		}
	}
	return c
}

// migrating is the placement policy of the driven migration tests: a
// short window and a low bar, so a 2:1 skew hands the library over.
func migrating() *core.Placement {
	return &core.Placement{
		Window: 50 * time.Millisecond, MinRequests: 4,
		Share: 0.5, PingPong: 0.8, Cooldown: time.Hour,
	}
}

// TestVerifyAcceptsMigratedTrace drives a real two-epoch history — a
// skewed workload that makes the library volunteer the role to its
// hottest writer, then post-handoff traffic including a straggler that
// slept through the switch — and requires the checker to pass it, with
// the commit visible as EvMigrate.
func TestVerifyAcceptsMigratedTrace(t *testing.T) {
	h := drive(t, Scenario{Sites: 3, Pages: 2, Options: core.Options{Placement: migrating()}})

	// Site 0's writes invalidate site 1, which pays a read fault plus an
	// upgrade per round: 2:1 demand for site 1 at the library.
	for i := 0; i < 40; i++ {
		h.access(t, 0, 0, true, byte(i))
		h.access(t, 1, 0, false, 0)
		h.access(t, 1, 0, true, byte(i)+1)
	}
	if h.engines[1].Stats().Migrations != 1 {
		t.Fatal("workload did not trigger a migration")
	}
	// Straggler: site 2 still believes epoch 0 / library 0; its request
	// is fenced by the deposed library and re-aimed at the successor.
	h.access(t, 2, 0, false, 0)
	// Post-handoff coherence traffic under the new library.
	h.access(t, 0, 0, true, 99)
	h.access(t, 2, 0, false, 0)
	h.k.Run()

	if countEvents(h.order.Buffer().Events(), obs.EvMigrate) == 0 {
		t.Fatal("trace has no EvMigrate event")
	}
	if h.engines[0].Stats().StaleEpoch == 0 {
		t.Error("deposed library never fenced the straggler")
	}
	h.verify(t, "migrated trace")
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
