package exp

import (
	"fmt"
	"io"
	"time"

	"mirage/internal/app"
	"mirage/internal/chaos"
	"mirage/internal/core"
	"mirage/internal/ipc"
	"mirage/internal/load"
	"mirage/internal/mem"
	"mirage/internal/obs"
)

// ---------------------------------------------------------------------------
// E19 — beyond the paper: service-level saturation. The paper evaluates
// Mirage with microbenchmarks (worst-case ping-pong, a representative
// application); E19 asks what the design costs per *request* by running
// a real service — the sharded session store of internal/app — under
// deterministic open-loop load (internal/load) on a rising rate ladder.
// The report per rung: goodput, shed load, p50/p95/p99/p999 latency,
// and the liveness invariant (every admitted request completes; queue
// depth stays bounded). The ladder's knee — the first rung where the
// service stops keeping up — is the headline number, with the first
// SLO-violating rung (p99 over storeSLO) alongside it.

// serviceKey is the segment key base for shard segments; shard i uses
// serviceKey+i.
const serviceKey mem.Key = 0x5345 // "SE"

// The store experiments' settings that no program varies (E19, E21, and
// E23's service and affinity cells): the load streams' seed (E19's chaos
// schedule's too), the store geometry, the service lanes per site and
// their backlog bound, the per-request CPU charged before the store call,
// and the p99 objective the findings report against — one second of
// queueing headroom over a base service time of ~65 ms of 1989-vintage
// page moves.
const (
	storeSeed          = 1
	storeShards        = 8
	storeSlotsPerShard = 32
	// ServiceWorkers is the service lanes per site; the live ladder maps
	// lane f to site f/ServiceWorkers, as the simulator does.
	ServiceWorkers = 4
	storeQueueCap  = 16
	storeOpCost    = 500 * time.Microsecond
	storeSLO       = time.Second
	// serviceKeys is E19's keyspace: half the store's slot capacity.
	serviceKeys = 128
)

// ServiceConfig parameterizes the E19 ladder.
type ServiceConfig struct {
	// Sites is the cluster size; shards spread their library sites
	// round-robin across it (default 4).
	Sites int
	// Rates is the offered-load ladder in requests/second (default
	// {25, 50, 100, 200, 400} — the simulated cluster's capacity is
	// ~250 req/s, so the default ladder straddles its knee).
	Rates []float64
	// Duration is each rung's offered window of virtual time (default
	// 5s).
	Duration time.Duration
	// Skew is the key-popularity distribution (default SkewZipf).
	Skew load.Skew
	// Chaos adds a second ladder under message drops and delays (with
	// the reliability layer on, so the protocol retries through them).
	Chaos bool
}

// WithDefaults returns the config with zero fields defaulted.
func (c ServiceConfig) WithDefaults() ServiceConfig {
	if c.Sites == 0 {
		c.Sites = 4
	}
	if len(c.Rates) == 0 {
		c.Rates = []float64{25, 50, 100, 200, 400}
	}
	if c.Duration == 0 {
		c.Duration = 5 * time.Second
	}
	if c.Skew == 0 {
		c.Skew = load.SkewZipf
	}
	return c
}

// Spec builds the load spec for one rung at the given offered rate.
// The live ladder uses the same method so both transports serve an
// identical op stream. Each of the Sites×Workers service lanes is its
// own open-loop frontend.
func (c ServiceConfig) Spec(rate float64) load.Spec {
	c = c.WithDefaults()
	return load.Spec{
		Seed:      storeSeed,
		Rate:      rate,
		Duration:  c.Duration,
		Frontends: c.Sites * ServiceWorkers,
		QueueCap:  storeQueueCap,
		Keys:      serviceKeys,
		Skew:      c.Skew,
	}
}

// AppConfig builds the store geometry both transports share. SlotSize
// is kept small (64 bytes): under §6.2's lazy remap every mapped page
// is re-mapped on each dispatch at vaxmodel.RemapPerPage, so a service
// proc's mapped footprint is a direct per-wakeup CPU tax.
func (c ServiceConfig) AppConfig() app.Config {
	c = c.WithDefaults()
	return app.Config{Shards: storeShards, Sites: c.Sites, SlotsPerShard: storeSlotsPerShard, SlotSize: 64}
}

// ServiceChaosPlan is the fault schedule the chaos ladder runs under:
// 0.5% drops and 5% delays up to 5ms, uniformly across sites and
// message kinds.
func ServiceChaosPlan(seed int64) *chaos.Plan {
	return &chaos.Plan{Seed: seed, Rules: []chaos.Rule{
		{Op: chaos.OpDrop, P: 0.005, From: chaos.Any, To: chaos.Any},
		{Op: chaos.OpDelay, P: 0.05, From: chaos.Any, To: chaos.Any, MaxDelay: 5 * time.Millisecond},
	}}
}

// openServiceStore attaches every shard segment (polling until the
// creator has made it) and builds this proc's store frontend on the
// virtual clock. Each simulated worker needs its own frontend: a
// segment access blocks the proc that owns the attach.
func openServiceStore(p *ipc.Proc, cfg app.Config, site int, stats *app.Stats, o *obs.Obs) *app.Store {
	segs := make([]app.Segment, cfg.Shards)
	for shard := range segs {
		h, err := p.Shmat(awaitSegment(p, serviceKey+mem.Key(shard), cfg.ShardBytes()), false)
		if err != nil {
			return nil
		}
		segs[shard] = h
	}
	st, err := app.New(cfg, segs, app.Options{
		Site:  site,
		Obs:   o,
		Stats: stats,
		Sleep: p.Sleep,
		Now:   func() time.Duration { return p.Now() },
	})
	if err != nil {
		return nil
	}
	return st
}

// serve wires one rung of the service workload E19 and E21 share onto
// c, runs it (the rung's window plus drain slack) and scores it. Per
// site: a creator proc that formats this site's shards and holds the
// attaches, plus ServiceWorkers lanes. Each lane is an independent
// open-loop frontend (load.Report.Serve on the proc's clock) with its
// own store frontend; each op costs storeOpCost of CPU before the store
// call. rekey, when non-nil, maps each op before it is served (E21's
// affinity). Store attribution accumulates into stats; o (which may be
// nil) receives the store's app counters.
func serve(c *ipc.Cluster, appCfg app.Config, spec load.Spec,
	rekey func(site int, op load.Op) load.Op, stats *app.Stats, o *obs.Obs) load.Rung {
	rep := load.NewReport()
	for s := 0; s < appCfg.Sites; s++ {
		c.Site(s).Spawn("creator", 0, func(p *ipc.Proc) {
			for shard := 0; shard < appCfg.Shards; shard++ {
				if appCfg.LibraryFor(shard) != s {
					continue
				}
				id, err := p.Shmget(serviceKey+mem.Key(shard), appCfg.ShardBytes(), mem.Create, rwMode)
				if err != nil {
					return
				}
				h, err := p.Shmat(id, false)
				if err != nil {
					return
				}
				if err := app.Format(h, appCfg, shard); err != nil {
					return
				}
			}
			p.Sleep(spec.Duration + serviceSlack) // hold the attaches: the library must outlive the rung
		})
		for w := 0; w < ServiceWorkers; w++ {
			lane := s*ServiceWorkers + w
			c.Site(s).Spawn("lane", 0, func(p *ipc.Proc) {
				st := openServiceStore(p, appCfg, s, stats, o)
				if st == nil {
					return
				}
				rep.Serve(spec, lane, p.Now, p.Sleep, func(op load.Op) (bool, error) {
					if rekey != nil {
						op = rekey(s, op)
					}
					p.Compute(storeOpCost)
					return load.Execute(st, spec, op)
				})
			})
		}
	}
	c.RunFor(spec.Duration + serviceSlack)
	return rep.Rung(spec)
}

// serviceSlack bounds post-window drain: backlogs hold at most
// QueueCap ops per lane, so a healthy rung finishes well inside it.
const serviceSlack = 10 * time.Second

// RunService runs one rung of the service workload at the offered rate
// on a caller-owned simulated cluster and scores it. Store attribution
// accumulates into stats; o (which may be nil) receives the app
// counters. This is the miragesim -workload service entry point.
func RunService(c *ipc.Cluster, cfg ServiceConfig, rate float64, stats *app.Stats, o *obs.Obs) load.Rung {
	cfg = cfg.WithDefaults()
	return serve(c, cfg.AppConfig(), cfg.Spec(rate), nil, stats, o)
}

// serviceCluster is the cluster an E19 rung runs on: under the chaos
// plan, with the reliability layer retrying through it.
func serviceCluster(cfg ServiceConfig, withChaos bool) ipc.Config {
	if !withChaos {
		return ipc.Config{}
	}
	return ipc.Config{Chaos: ServiceChaosPlan(storeSeed), Engine: core.Options{Reliability: failoverRel()}}
}

// serviceRung is one simulated E19 rung: its score, its store
// attribution and its trace.
type serviceRung struct {
	Rung load.Rung
	App  app.ShardCounters
	Trace
}

// serviceRungSim runs one rung on its own simulated cluster.
func serviceRungSim(cfg ServiceConfig, rate float64, withChaos bool) serviceRung {
	var r serviceRung
	r.Trace = simulate(cfg.Sites, serviceCluster(cfg, withChaos), func(c *ipc.Cluster) {
		stats := app.NewStats(storeShards)
		r.Rung = RunService(c, cfg, rate, stats, nil)
		r.App = stats.Total()
	})
	return r
}

// ServiceLadder is one transport's scored rate ladder; its JSON form is
// a ladder of miragebench -out's service section.
type ServiceLadder struct {
	// Transport names the execution mode ("sim", "live-tcp").
	Transport string `json:"transport"`
	// Chaos reports whether the ladder ran under the fault plan.
	Chaos bool `json:"chaos"`
	// Events and Violations sum what the trace check found over the
	// rungs (sim ladders only; a live run is not verified here).
	Events     int `json:"verified_events"`
	Violations int `json:"violations"`
	// Knee indexes the first saturated rung, -1 if none.
	Knee int `json:"knee_rung"`
	// KneeRate is the knee rung's offered rate, 0 if none.
	KneeRate float64 `json:"knee_rate_rps,omitempty"`
	// P99AtHalfKnee is the p99 at the last sustained rung (half the
	// knee's offered rate on the default doubling ladder), 0 unless a
	// rung below the knee exists.
	P99AtHalfKnee int64 `json:"p99_at_half_knee_ns,omitempty"`
	// Rungs are the scored rungs in ladder (rate) order.
	Rungs []load.Rung `json:"rungs"`
	// FirstSLO indexes the first rung whose p99 breaks the SLO, -1 if
	// none.
	FirstSLO int `json:"-"`
	// LivenessBelowKnee reports whether every rung below the knee kept
	// the liveness invariant.
	LivenessBelowKnee bool `json:"-"`
	// App is the aggregated store attribution (sim ladders only; the
	// live ladder reports through its own cluster's stats).
	App app.ShardCounters `json:"-"`
}

// ScoreLadder folds scored rungs into a ladder verdict; the live
// runner uses it so both transports are judged identically.
func ScoreLadder(transport string, withChaos bool, cfg ServiceConfig, rungs []load.Rung) ServiceLadder {
	cfg = cfg.WithDefaults()
	l := ServiceLadder{Transport: transport, Chaos: withChaos, Rungs: rungs}
	l.Knee = load.Knee(rungs, cfg.Spec(0))
	l.FirstSLO = load.FirstSLOViolation(rungs, storeSLO)
	end := len(rungs)
	if l.Knee >= 0 {
		end = l.Knee
		l.KneeRate = rungs[l.Knee].Rate
	}
	if l.Knee >= 1 {
		l.P99AtHalfKnee = rungs[l.Knee-1].Latency.P99
	}
	l.LivenessBelowKnee = true
	for _, g := range rungs[:end] {
		if !g.LivenessOK {
			l.LivenessBelowKnee = false
		}
	}
	return l
}

// ServiceSweepResult is the whole E19 run; its JSON form is miragebench
// -out's service section.
type ServiceSweepResult struct {
	Config ServiceConfig `json:"-"`
	// ReplayMatches reports the determinism check: the last rung run
	// twice gave one value and one trace.
	ReplayMatches bool `json:"replay_matches"`
	// Ladders holds the simulated ladders (no-chaos first, chaos
	// second when enabled); callers may append live ladders before
	// rendering findings.
	Ladders []ServiceLadder `json:"ladders"`
}

// ServiceSweep runs the simulated E19 ladder(s): every rung is an
// independent deterministic cluster, so the whole grid fans out across
// the worker pool; the last rung is replayed.
func ServiceSweep(cfg ServiceConfig) ServiceSweepResult {
	cfg = cfg.WithDefaults()
	type rung struct {
		rate  float64
		chaos bool
	}
	ladders := []bool{false}
	if cfg.Chaos {
		ladders = append(ladders, true)
	}
	var grid []rung
	for _, withChaos := range ladders {
		for _, rate := range cfg.Rates {
			grid = append(grid, rung{rate, withChaos})
		}
	}
	pts, replay := sweepReplayed(grid, func(g rung) serviceRung { return serviceRungSim(cfg, g.rate, g.chaos) })
	r := ServiceSweepResult{Config: cfg, ReplayMatches: replay}
	n := len(cfg.Rates)
	for l := 0; l*n < len(pts); l++ {
		ladder := pts[l*n : (l+1)*n]
		rungs := make([]load.Rung, n)
		for i, p := range ladder {
			rungs[i] = p.Rung
		}
		lad := ScoreLadder("sim", l == 1, cfg, rungs)
		for _, p := range ladder {
			lad.App = lad.App.Add(p.App)
			lad.Events += p.Events
			lad.Violations += len(p.Violations)
		}
		r.Ladders = append(r.Ladders, lad)
	}
	return r
}

// WriteFindings renders the FINDINGS-style verdict: hypothesis, seeds,
// and per-ladder knee, SLO, and liveness conclusions.
func (r ServiceSweepResult) WriteFindings(w io.Writer) {
	cfg := r.Config.WithDefaults()
	fmt.Fprintf(w, "E19 — service saturation (seed %d, %d sites, %d shards, %s skew, %s rungs)\n",
		storeSeed, cfg.Sites, storeShards, cfg.Skew, cfg.Duration)
	fmt.Fprintf(w, "Hypothesis: the session store on Mirage shows a clean saturation knee on an\n")
	fmt.Fprintf(w, "open-loop rate ladder; below the knee every admitted request completes with\n")
	fmt.Fprintf(w, "bounded queues (liveness), and the p99 SLO of %v breaks at or before the knee.\n", storeSLO)
	for _, l := range r.Ladders {
		name := l.Transport
		if l.Chaos {
			name += "+chaos"
		}
		fmt.Fprintf(w, "[%s]\n", name)
		switch {
		case l.Knee < 0:
			fmt.Fprintf(w, "  knee: none — ladder top %.0f req/s sustained (goodput %.0f req/s)\n",
				l.Rungs[len(l.Rungs)-1].Rate, l.Rungs[len(l.Rungs)-1].Goodput)
		case l.Knee == 0:
			fmt.Fprintf(w, "  knee: rung 0 (%.0f req/s) — already saturated at the ladder floor\n",
				l.Rungs[0].Rate)
		default:
			fmt.Fprintf(w, "  knee: rung %d (%.0f req/s); last sustained %.0f req/s at p99 %v\n",
				l.Knee, l.Rungs[l.Knee].Rate, l.Rungs[l.Knee-1].Rate,
				time.Duration(l.Rungs[l.Knee-1].Latency.P99))
		}
		if l.FirstSLO < 0 {
			fmt.Fprintf(w, "  SLO: p99 ≤ %v on every rung\n", storeSLO)
		} else {
			fmt.Fprintf(w, "  SLO: first p99 > %v at rung %d (%.0f req/s, p99 %v)\n",
				storeSLO, l.FirstSLO, l.Rungs[l.FirstSLO].Rate,
				time.Duration(l.Rungs[l.FirstSLO].Latency.P99))
		}
		fmt.Fprintf(w, "  liveness below knee: %v\n", Verdict(l.LivenessBelowKnee))
		if l.App.Ops() > 0 {
			fmt.Fprintf(w, "  store: %d ops, %d conflicts, %d errors\n",
				l.App.Ops(), l.App.Conflicts, l.App.Errors)
		}
		if l.Events > 0 {
			fmt.Fprintf(w, "  trace check: %d events verified, %d violations\n", l.Events, l.Violations)
		}
	}
}

// Verdict renders a finding's outcome as the FINDINGS files write it.
func Verdict(ok bool) string {
	if ok {
		return "HOLDS"
	}
	return "VIOLATED"
}
