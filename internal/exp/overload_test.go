package exp

import (
	"testing"
	"time"

	"mirage/internal/app"
	"mirage/internal/check"
	"mirage/internal/core"
	"mirage/internal/ipc"
	"mirage/internal/obs"
)

// TestFailoverUnderOverload runs E21's skewed affinity load, 4 s of it,
// on the replicated stack (Failover, no placement): E21's cells no longer
// set Failover, and their takeover under load is checked here. The load
// over-runs the libraries: requests give up on live libraries and the
// group takes over from them, and grants give up on holders that did
// receive them. No takeover may leave two writers, break the order of
// writes or fork the log. What ROADMAP item 6's lease and item 16's
// liveness check have yet to close is counted and pinned: a pin may go
// down, never up.
func TestFailoverUnderOverload(t *testing.T) {
	// 150 req/s, the rate the pins were measured at: twice what this
	// stack serves. E21's own default follows the plain stack's capacity.
	mcfg := MigrationConfig{Duration: 4 * time.Second, Rate: 150}.WithDefaults()
	c := ipc.NewCluster(mcfg.Sites, ipc.Config{Engine: core.Options{
		Reliability: failoverRel(), Failover: &core.Failover{}, Obs: obs.New()}})
	RunAffinity(c, mcfg, false, app.NewStats(storeShards), nil)

	cfg := c.CheckConfig()
	cfg.MaxViolations = 1 << 20
	viols := check.Verify(cfg, c.Obs.Buffer().Events())
	for _, seg := range c.Registry.Segments() {
		for s := 0; s < c.Sites(); s++ {
			viols = append(viols, check.BusyPages(s, int32(seg.ID), c.Site(s).Eng)...)
		}
	}
	got := make(map[string]int)
	for _, v := range viols {
		got[v.Invariant]++
	}
	takeovers := count(c, obs.EvElect)
	t.Logf("%d takeovers, %d events; violations by invariant: %v", takeovers, c.Obs.Buffer().Len(), got)
	if takeovers == 0 {
		t.Fatal("no takeover: the load never over-ran a library, and the test proves nothing")
	}
	// Every invariant not named here is pinned at 0; the three
	// takeover invariants, single-writer, write-serialization and
	// log-prefix, are meant to stay there.
	pins := map[string]int{
		check.InvLatestWrite: 0, // item 6
		check.InvIdlePage:    0, // item 16: faults still blocked when the load stops
	}
	for inv, n := range got {
		if max, ok := pins[inv]; !ok || n > max {
			t.Errorf("%s: %d violations, pinned at %d", inv, n, max)
		}
	}
}
