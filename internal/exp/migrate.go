package exp

import (
	"fmt"
	"io"
	"time"

	"mirage/internal/app"
	"mirage/internal/core"
	"mirage/internal/ipc"
	"mirage/internal/load"
	"mirage/internal/obs"
)

// ---------------------------------------------------------------------------
// E21 — beyond the paper: voluntary library migration. E19 measures the
// service with every shard's library fixed where rendezvous placement
// put it; E21 asks what Options.Placement buys when the demand does not
// match that placement. The workload gives every service site strong
// affinity for a set of shards (its lanes draw almost all their keys
// from those shards) while the shards' libraries start elsewhere, so
// each hot site pays a network round trip per fault that a local
// library would not charge. Two scenarios: "skewed" starts every shard
// mis-homed (placement must fix a bad static layout), "shifting"
// starts matched and rotates the affinity mid-run (placement must track
// a moving hotspot). Each runs with migration off and on; the verdict
// compares p99 and goodput, with every run's trace — the on-runs'
// carrying the EvMigrate commits — verified by the coherence checker.

// MigrationConfig parameterizes the E21 sweep.
type MigrationConfig struct {
	// Seed drives the load streams (default 1).
	Seed int64
	// Sites is the cluster size (default 4).
	Sites int
	// Shards and SlotsPerShard fix the store geometry (defaults 8, 32).
	Shards        int
	SlotsPerShard int
	// Rate is the offered aggregate load in requests/second (default
	// 150 — below the E19 knee, so latency reflects page-move distance
	// rather than saturation).
	Rate float64
	// Duration is the offered window (default 16s); the shifting
	// scenario rotates affinity at Duration/2, so half the run is
	// post-rotation — long enough for the policy's window and cooldown
	// to rehome the hot shards and for the benefit to register.
	Duration time.Duration
	// Workers is the per-site lane count (default 2).
	Workers int
	// QueueCap bounds each lane's backlog (default 16).
	QueueCap int
	// KeysPerShard sizes each shard's key pool (default 12).
	KeysPerShard int
	// CrossFrac is the fraction of each lane's ops aimed at the whole
	// keyspace instead of its affine pool (default 0.1). The cross
	// traffic keeps invalidating the hot sites' copies, which is what
	// sustains library demand after warm-up — and what keeps the
	// hot/cold demand ratio visible to the placement policy.
	CrossFrac float64
	// ReadFrac is the read fraction of the op mix (default 0.65 — more
	// writes than the library default so cross traffic keeps
	// invalidating the hot sites' copies, sustaining the fault-driven
	// demand signal the placement policy feeds on).
	ReadFrac float64
	// OpCost is per-request CPU before the store call (default 500µs).
	OpCost time.Duration
	// SLO is the p99 objective findings report against (default 1s).
	SLO time.Duration
}

// WithDefaults returns the config with zero fields defaulted.
func (c MigrationConfig) WithDefaults() MigrationConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Sites == 0 {
		c.Sites = 4
	}
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.SlotsPerShard == 0 {
		c.SlotsPerShard = 32
	}
	if c.Rate == 0 {
		c.Rate = 150
	}
	if c.Duration == 0 {
		c.Duration = 16 * time.Second
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.QueueCap == 0 {
		c.QueueCap = 16
	}
	if c.KeysPerShard == 0 {
		c.KeysPerShard = 12
	}
	if c.CrossFrac == 0 {
		c.CrossFrac = 0.1
	}
	if c.ReadFrac == 0 {
		c.ReadFrac = 0.65
	}
	if c.OpCost == 0 {
		c.OpCost = 500 * time.Microsecond
	}
	if c.SLO == 0 {
		c.SLO = time.Second
	}
	return c
}

// AppConfig builds the store geometry.
func (c MigrationConfig) AppConfig() app.Config {
	c = c.WithDefaults()
	return app.Config{Shards: c.Shards, Sites: c.Sites, SlotsPerShard: c.SlotsPerShard, SlotSize: 64}
}

// Policy is the placement policy the on-points run. The knobs are
// sized for fault-driven demand, which is far sparser than op-driven
// load: a library only hears from a site when an invalidation made it
// re-fault, so a shard serving tens of ops/s may see single-digit
// library requests per second. Window 1s with a floor of 8 catches
// that while filtering the noise windows where a lucky burst of cross
// traffic could elect the wrong site; Share 0.5 accepts the hot site's
// ~half of a stream whose other half is spread over several
// cross-traffic sites. PingPong 0.7 refuses windows where the
// runner-up rivals the leader — both true 1:1 write sharing and the
// post-migration steady state, where the rehomed site's loopback
// re-faults roughly match the interrupting cross traffic.
func (c MigrationConfig) Policy() *core.Placement {
	return &core.Placement{
		Window:      time.Second,
		MinRequests: 8,
		Share:       0.5,
		PingPong:    0.7,
		Cooldown:    3 * time.Second,
	}
}

// Spec builds the rung's load spec: one frontend per service lane.
func (c MigrationConfig) Spec() load.Spec {
	c = c.WithDefaults()
	return load.Spec{
		Seed:      c.Seed,
		Rate:      c.Rate,
		Duration:  c.Duration,
		Frontends: c.Sites * c.Workers,
		Workers:   1,
		QueueCap:  c.QueueCap,
		Keys:      c.Shards * c.KeysPerShard,
		ReadFrac:  c.ReadFrac,
		Skew:      load.SkewUniform,
		SLO:       c.SLO,
		OpCost:    c.OpCost,
	}
}

// shardPools scans the key id space upward until every shard holds
// KeysPerShard ids, returning the per-shard pools plus the union in
// scan order. Key ids are what load.Execute hashes through KeyBytes,
// so pool membership is exact.
func (c MigrationConfig) shardPools() (pools [][]uint64, all []uint64) {
	c = c.WithDefaults()
	appCfg := c.AppConfig()
	pools = make([][]uint64, c.Shards)
	need := c.Shards * c.KeysPerShard
	for k := uint64(0); len(all) < need; k++ {
		s := appCfg.ShardOf(load.KeyBytes(k))
		if len(pools[s]) >= c.KeysPerShard {
			continue
		}
		pools[s] = append(pools[s], k)
		all = append(all, k)
	}
	return pools, all
}

// affinityHome maps shard -> hot site for one phase. rot == 0 matches
// the rendezvous placement (demand lands where the library already
// is); rot >= 1 rotates every shard's hot site away from its library,
// the mismatch migration exists to fix.
func (c MigrationConfig) affinityHome(shard, rot int) int {
	c = c.WithDefaults()
	return (c.AppConfig().LibraryFor(shard) + rot) % c.Sites
}

// MigrationPoint is one scenario×placement cell of the sweep.
type MigrationPoint struct {
	// Scenario is "skewed" (static mismatch) or "shifting" (affinity
	// rotates at half-time).
	Scenario string `json:"scenario"`
	// Placement reports whether voluntary migration was enabled.
	Placement bool `json:"placement"`
	// Rung is the scored service run.
	Rung load.Rung `json:"rung"`
	// Migrations and Refused sum the cluster's voluntary-migration
	// counters; StaleEpoch counts fenced stragglers.
	Migrations int `json:"migrations"`
	Refused    int `json:"refused"`
	StaleEpoch int `json:"stale_epoch"`
	// Handoffs counts the EvMigrate commits in the run's trace: the
	// handoffs the checker must accept.
	Handoffs int `json:"handoffs"`
	Trace
}

// MigrationSweepResult is the whole E21 run.
type MigrationSweepResult struct {
	Config MigrationConfig
	// Points holds skewed{off,on} then shifting{off,on}.
	Points []MigrationPoint
	// ReplayMatches reports the determinism check: the shifting+placement
	// point run twice gave one value and one trace.
	ReplayMatches bool
}

// rekey maps a lane's op at a site into the pool of the shards hot there
// in the phase in force at its arrival. The skewed scenario mis-homes
// every shard from the start and never changes; shifting starts matched
// and rotates at Duration/2. A CrossFrac slice of the stream roams the
// whole keyspace.
func (c MigrationConfig) rekey(shift bool) func(site int, op load.Op) load.Op {
	c = c.WithDefaults()
	pools, all := c.shardPools()
	half := c.Duration / 2
	firstRot, secondRot := 1, 1
	if shift {
		firstRot, secondRot = 0, 1
	}
	sitePool := func(site, rot int) []uint64 {
		var out []uint64
		for s := 0; s < c.Shards; s++ {
			if c.affinityHome(s, rot) == site {
				out = append(out, pools[s]...)
			}
		}
		if len(out) == 0 {
			return all
		}
		return out
	}
	first, second := make([][]uint64, c.Sites), make([][]uint64, c.Sites)
	for s := range first {
		first[s], second[s] = sitePool(s, firstRot), sitePool(s, secondRot)
	}
	crossMod := uint64(100)
	crossCut := uint64(float64(crossMod) * c.CrossFrac)
	return func(site int, op load.Op) load.Op {
		mix := op.Key * 2654435761 % crossMod
		pool := first[site]
		if shift && op.T >= half {
			pool = second[site]
		}
		if mix < crossCut {
			op.Key = all[op.Key%uint64(len(all))]
		} else {
			op.Key = pool[op.Key%uint64(len(pool))]
		}
		return op
	}
}

// RunAffinity drives the E21 affinity workload on a caller-built
// cluster and scores it: every site's lanes favor shards whose
// libraries rendezvous-placed one site over (the mismatch voluntary
// migration exists to fix), with shift rotating the affinity at
// Duration/2. miragesim's affinity workload is this entry point; the
// caller decides whether the cluster's engines run a placement policy.
func RunAffinity(c *ipc.Cluster, cfg MigrationConfig, shift bool, stats *app.Stats, o *obs.Obs) load.Rung {
	cfg = cfg.WithDefaults()
	return serve(c, cfg.AppConfig(), cfg.Spec(), cfg.Workers, cfg.rekey(shift), stats, o)
}

// cluster is the cluster an E21 cell runs on: the takeover layers the
// handoff rides on, and the placement policy when the cell has it.
func (c MigrationConfig) cluster(placement bool) ipc.Config {
	eng := core.Options{Reliability: failoverRel(), Failover: &core.Failover{}}
	if placement {
		eng.Placement = c.Policy()
	}
	return ipc.Config{Engine: eng}
}

// runMigrationPoint runs one scenario×placement cell on its own
// deterministic cluster.
func runMigrationPoint(cfg MigrationConfig, shift, placement bool) MigrationPoint {
	cfg = cfg.WithDefaults()
	pt := MigrationPoint{Scenario: "skewed", Placement: placement}
	if shift {
		pt.Scenario = "shifting"
	}
	pt.Trace = simulate(cfg.Sites, cfg.cluster(placement), func(c *ipc.Cluster) {
		pt.Rung = RunAffinity(c, cfg, shift, app.NewStats(cfg.Shards), nil)
		for i := 0; i < c.Sites(); i++ {
			st := c.Site(i).Eng.Stats()
			pt.Migrations += st.Migrations
			pt.Refused += st.MigrationsRefused
			pt.StaleEpoch += st.StaleEpoch
		}
		pt.Handoffs = count(c, obs.EvMigrate)
	})
	return pt
}

// MigrationSweep runs the four-cell E21 grid and replays its last cell;
// every cell is an independent deterministic cluster, so the set fans
// out across the worker pool.
func MigrationSweep(cfg MigrationConfig) MigrationSweepResult {
	cfg = cfg.WithDefaults()
	type cell struct{ shift, placement bool }
	grid := []cell{{false, false}, {false, true}, {true, false}, {true, true}}
	pts, replay := sweepReplayed(grid, func(g cell) MigrationPoint { return runMigrationPoint(cfg, g.shift, g.placement) })
	return MigrationSweepResult{Config: cfg, Points: pts, ReplayMatches: replay}
}

// Cell returns the point for a scenario×placement cell.
func (r MigrationSweepResult) Cell(scenario string, placement bool) *MigrationPoint {
	for i := range r.Points {
		if r.Points[i].Scenario == scenario && r.Points[i].Placement == placement {
			return &r.Points[i]
		}
	}
	return nil
}

// WriteFindings renders the FINDINGS-style verdict: per scenario, the
// off/on comparison on p99 and goodput, and the migration counts.
func (r MigrationSweepResult) WriteFindings(w io.Writer) {
	cfg := r.Config.WithDefaults()
	fmt.Fprintf(w, "E21 — voluntary library migration (seed %d, %d sites, %d shards, %.0f req/s, %s)\n",
		cfg.Seed, cfg.Sites, cfg.Shards, cfg.Rate, cfg.Duration)
	fmt.Fprintf(w, "Hypothesis: when request affinity and library placement disagree, enabling\n")
	fmt.Fprintf(w, "Options.Placement rehomes the hot shards' libraries to their dominant\n")
	fmt.Fprintf(w, "requesters and improves p99 latency or goodput; with affinity matched it\n")
	fmt.Fprintf(w, "stays quiet until the hotspot moves.\n")
	for _, scenario := range []string{"skewed", "shifting"} {
		off, on := r.Cell(scenario, false), r.Cell(scenario, true)
		if off == nil || on == nil {
			continue
		}
		fmt.Fprintf(w, "[%s]\n", scenario)
		fmt.Fprintf(w, "  off: p99 %v, goodput %.1f req/s, %d shed\n",
			time.Duration(off.Rung.Latency.P99), off.Rung.Goodput, off.Rung.Shed)
		fmt.Fprintf(w, "  on:  p99 %v, goodput %.1f req/s, %d shed; %d migrations (%d refused), %d stragglers fenced\n",
			time.Duration(on.Rung.Latency.P99), on.Rung.Goodput, on.Rung.Shed,
			on.Migrations, on.Refused, on.StaleEpoch)
		better := on.Rung.Latency.P99 < off.Rung.Latency.P99 || on.Rung.Goodput > off.Rung.Goodput
		fmt.Fprintf(w, "  migration wins on p99 or goodput: %s\n", Verdict(better))
		fmt.Fprintf(w, "  migrated at least once: %s\n", Verdict(on.Migrations > 0))
	}
	if on := r.Cell("shifting", true); on != nil {
		fmt.Fprintf(w, "traced handoffs in shifting+on run: %d\n", on.Handoffs)
	}
}
