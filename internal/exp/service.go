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
// SLO-violating rung (p99 over ServiceConfig.SLO) alongside it.

// serviceKey is the segment key base for shard segments; shard i uses
// serviceKey+i.
const serviceKey mem.Key = 0x5345 // "SE"

// ServiceConfig parameterizes the E19 ladder.
type ServiceConfig struct {
	// Seed drives the load streams and any chaos schedule (default 1).
	Seed int64
	// Sites is the cluster size; shards spread their library sites
	// round-robin across it (default 4).
	Sites int
	// Shards and SlotsPerShard fix the store geometry (defaults 8 and
	// 32).
	Shards        int
	SlotsPerShard int
	// Rates is the offered-load ladder in requests/second (default
	// {25, 50, 100, 200, 400} — the simulated cluster's capacity is
	// ~250 req/s, so the default ladder straddles its knee).
	Rates []float64
	// Duration is each rung's offered window of virtual time (default
	// 5s).
	Duration time.Duration
	// Workers is the per-site service concurrency (default 4).
	Workers int
	// QueueCap bounds each service lane's backlog (default 16).
	QueueCap int
	// Keys is the keyspace size (default 128 — half the store's slot
	// capacity at the default geometry).
	Keys int
	// Skew is the key-popularity distribution (default SkewZipf).
	Skew load.Skew
	// OpCost is per-request CPU charged by a worker before the store
	// call (default 500µs).
	OpCost time.Duration
	// SLO is the p99 objective the findings report against (default
	// 1s — the base service time is ~65ms of 1989-vintage page moves,
	// so the objective is one second of queueing headroom over it).
	SLO time.Duration
	// Chaos adds a second ladder under message drops and delays (with
	// the reliability layer on, so the protocol retries through them).
	Chaos bool
}

// WithDefaults returns the config with zero fields defaulted.
func (c ServiceConfig) WithDefaults() ServiceConfig {
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
	if len(c.Rates) == 0 {
		c.Rates = []float64{25, 50, 100, 200, 400}
	}
	if c.Duration == 0 {
		c.Duration = 5 * time.Second
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.QueueCap == 0 {
		c.QueueCap = 16
	}
	if c.Keys == 0 {
		c.Keys = 128
	}
	if c.Skew == 0 && c.Keys > 0 {
		c.Skew = load.SkewZipf
	}
	if c.OpCost == 0 {
		c.OpCost = 500 * time.Microsecond
	}
	if c.SLO == 0 {
		c.SLO = time.Second
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
		Seed:      c.Seed,
		Rate:      rate,
		Duration:  c.Duration,
		Frontends: c.Sites * c.Workers,
		Workers:   1,
		QueueCap:  c.QueueCap,
		Keys:      c.Keys,
		Skew:      c.Skew,
		SLO:       c.SLO,
		OpCost:    c.OpCost,
	}
}

// AppConfig builds the store geometry both transports share. SlotSize
// is kept small (64 bytes): under §6.2's lazy remap every mapped page
// is re-mapped on each dispatch at vaxmodel.RemapPerPage, so a service
// proc's mapped footprint is a direct per-wakeup CPU tax.
func (c ServiceConfig) AppConfig() app.Config {
	c = c.WithDefaults()
	return app.Config{Shards: c.Shards, Sites: c.Sites, SlotsPerShard: c.SlotsPerShard, SlotSize: 64}
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
// attaches, plus workers service lanes. Each lane is an independent
// open-loop frontend — it releases its own Poisson sub-stream, serves
// ops in arrival order through its own store frontend, and sheds
// arrivals that find its backlog at QueueCap. Lanes never poll: an idle
// lane sleeps until its next scheduled arrival, which matters because
// §6.2's lazy remap charges every mapped page on every dispatch. rekey,
// when non-nil, maps each arrival before it is queued (E21's affinity).
// Store attribution accumulates into stats; o (which may be nil)
// receives the store's app counters.
func serve(c *ipc.Cluster, appCfg app.Config, spec load.Spec, workers int,
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
		for w := 0; w < workers; w++ {
			lane := s*workers + w
			c.Site(s).Spawn("lane", 0, func(p *ipc.Proc) {
				st := openServiceStore(p, appCfg, s, stats, o)
				if st == nil {
					return
				}
				g := load.NewGen(spec, lane)
				var backlog []load.Op
				admit := func(op load.Op) {
					if rekey != nil {
						op = rekey(s, op)
					}
					backlog = append(backlog, op)
					rep.Admit()
				}
				next, more := g.Next()
				for {
					if len(backlog) == 0 {
						if !more {
							return
						}
						if d := next.T - p.Now(); d > 0 {
							p.Sleep(d)
						}
						admit(next)
						next, more = g.Next()
					}
					// Absorb every arrival that came due while serving;
					// past QueueCap they are shed, keeping the backlog
					// bounded.
					for more && next.T <= p.Now() {
						if len(backlog) >= spec.QueueCap {
							rep.Shed()
						} else {
							admit(next)
						}
						next, more = g.Next()
					}
					rep.ObserveQueue(len(backlog))
					op := backlog[0]
					backlog = backlog[1:]
					if spec.OpCost > 0 {
						p.Compute(spec.OpCost)
					}
					hit, err := load.Execute(st, spec, op)
					rep.Done(p.Now()-op.T, hit, err)
				}
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
	return serve(c, cfg.AppConfig(), cfg.Spec(rate), cfg.Workers, nil, stats, o)
}

// serviceCluster is the cluster an E19 rung runs on: under the chaos
// plan, with the reliability layer retrying through it.
func serviceCluster(cfg ServiceConfig, withChaos bool) ipc.Config {
	if !withChaos {
		return ipc.Config{}
	}
	return ipc.Config{Chaos: ServiceChaosPlan(cfg.Seed), Engine: core.Options{Reliability: failoverRel()}}
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
		stats := app.NewStats(cfg.Shards)
		r.Rung = RunService(c, cfg, rate, stats, nil)
		r.App = stats.Total()
	})
	return r
}

// ServiceLadder is one transport's scored rate ladder.
type ServiceLadder struct {
	// Transport names the execution mode ("sim", "live-tcp").
	Transport string
	// Chaos reports whether the ladder ran under the fault plan.
	Chaos bool
	// Rungs are the scored rungs in ladder (rate) order.
	Rungs []load.Rung
	// Knee indexes the first saturated rung, -1 if none.
	Knee int
	// FirstSLO indexes the first rung whose p99 breaks the SLO, -1 if
	// none.
	FirstSLO int
	// LivenessBelowKnee reports whether every rung below the knee kept
	// the liveness invariant.
	LivenessBelowKnee bool
	// App is the aggregated store attribution (sim ladders only; the
	// live ladder reports through its own cluster's stats).
	App app.ShardCounters
	// Events and Violations sum what the trace check found over the
	// rungs (sim ladders only; a live run is not verified here).
	Events, Violations int
}

// ScoreLadder folds scored rungs into a ladder verdict; the live
// runner uses it so both transports are judged identically.
func ScoreLadder(transport string, withChaos bool, cfg ServiceConfig, rungs []load.Rung) ServiceLadder {
	cfg = cfg.WithDefaults()
	l := ServiceLadder{Transport: transport, Chaos: withChaos, Rungs: rungs}
	l.Knee = load.Knee(rungs, cfg.Spec(0))
	l.FirstSLO = load.FirstSLOViolation(rungs, cfg.SLO)
	l.LivenessBelowKnee = true
	end := len(rungs)
	if l.Knee >= 0 {
		end = l.Knee
	}
	for _, g := range rungs[:end] {
		if !g.LivenessOK {
			l.LivenessBelowKnee = false
		}
	}
	return l
}

// ServiceSweepResult is the whole E19 run.
type ServiceSweepResult struct {
	Config ServiceConfig
	// Ladders holds the simulated ladders (no-chaos first, chaos
	// second when enabled); callers may append live ladders before
	// rendering findings.
	Ladders []ServiceLadder
	// ReplayMatches reports the determinism check: the last rung run
	// twice gave one value and one trace.
	ReplayMatches bool
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
		cfg.Seed, cfg.Sites, cfg.Shards, cfg.Skew, cfg.Duration)
	fmt.Fprintf(w, "Hypothesis: the session store on Mirage shows a clean saturation knee on an\n")
	fmt.Fprintf(w, "open-loop rate ladder; below the knee every admitted request completes with\n")
	fmt.Fprintf(w, "bounded queues (liveness), and the p99 SLO of %v breaks at or before the knee.\n", cfg.SLO)
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
			fmt.Fprintf(w, "  SLO: p99 ≤ %v on every rung\n", cfg.SLO)
		} else {
			fmt.Fprintf(w, "  SLO: first p99 > %v at rung %d (%.0f req/s, p99 %v)\n",
				cfg.SLO, l.FirstSLO, l.Rungs[l.FirstSLO].Rate,
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
