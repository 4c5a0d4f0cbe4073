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
	"mirage/internal/vaxmodel"
)

// ---------------------------------------------------------------------------
// E23 — closing the Δ loop. E16 located the denial crossover offline by
// sweeping fixed Δs; Options.AutoDelta is the online answer, a per-page
// AIMD controller at the library (DESIGN.md §16). E23 asks the question
// that justifies shipping it: started from a deliberately wrong Δ, does
// the controller match the best hand-tuned fixed Δ — without being told
// which one that is? Three workloads, in rising realism: the E16
// ping-pong worst case (write-sharing; best fixed Δ is the floor), the
// E19 service rung (mixed sharing under open-loop load), and the E21
// skewed-affinity scenario with voluntary migration on, so tuned Δs
// ride migration records in the measured path. Each workload runs a
// fixed-Δ grid and one controller cell, every one traced and checked —
// the controller's with Delta = AutoDelta.Min, the sound lower bound on
// every clamped window.

// AutoDeltaConfig parameterizes the E23 sweep.
type AutoDeltaConfig struct {
	// Ticks is the fixed-Δ grid in scheduling clock ticks (default
	// {0, 1, 2, 6, 12} — the E16 shape: floor, sub-quantum, the quantum
	// crossover at 6, and past it).
	Ticks []int
	// SeedTicks is the segment Δ the controller cell starts from
	// (default 6 — one scheduling quantum, maximally wrong for the
	// write-sharing workloads whose best fixed Δ is 0).
	SeedTicks int
	// PingPongDur is the ping-pong measurement window (default 5s).
	PingPongDur time.Duration
	// Warmup runs the ping-pong workload unmeasured before the window,
	// so every cell is scored at steady state (default 2s — the
	// controller converges from the quantum seed in about one second;
	// fixed cells get the same protocol for fairness). The open-loop
	// service/affinity workloads need none: their goodput scores
	// integrate the whole offered window by construction.
	Warmup time.Duration
	// Rate is the service/affinity offered load in req/s (default 150,
	// below the E19 knee so latency reflects page movement).
	Rate float64
	// ServiceDur is the service rung's offered window (default 3s).
	ServiceDur time.Duration
	// AffinityDur is the affinity scenario's offered window (default
	// 10s; placement needs its demand windows and cooldown).
	AffinityDur time.Duration
	// Tolerance is the relative margin the controller must reach of the
	// best fixed cell's score (default 0.05).
	Tolerance float64
}

// WithDefaults returns the config with zero fields defaulted.
func (c AutoDeltaConfig) WithDefaults() AutoDeltaConfig {
	if len(c.Ticks) == 0 {
		c.Ticks = []int{0, 1, 2, 6, 12}
	}
	if c.SeedTicks == 0 {
		c.SeedTicks = 6
	}
	if c.PingPongDur == 0 {
		c.PingPongDur = 5 * time.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 2 * time.Second
	}
	if c.Rate == 0 {
		c.Rate = 150
	}
	if c.ServiceDur == 0 {
		c.ServiceDur = 3 * time.Second
	}
	if c.AffinityDur == 0 {
		c.AffinityDur = 10 * time.Second
	}
	if c.Tolerance == 0 {
		c.Tolerance = 0.05
	}
	return c
}

// AutoDeltaPoint is one cell of a workload's grid: a fixed Δ, or the
// controller (DeltaTicks -1).
type AutoDeltaPoint struct {
	// DeltaTicks is the fixed Δ in clock ticks; -1 marks the controller
	// cell (seeded at AutoDeltaConfig.SeedTicks).
	DeltaTicks int `json:"delta_ticks"`
	// Score is the workload's figure of merit, higher better:
	// cycles/sec for ping-pong, goodput req/s for service and affinity.
	Score float64 `json:"score"`
	// P99 is the request p99 latency (service and affinity cells).
	P99 time.Duration `json:"p99,omitempty"`
	// Denials sums KBusy replies across sites — how often a window
	// turned a request away.
	Denials int `json:"denials"`
	// Grows and Shrinks sum the controller's adjustments across sites
	// (zero in fixed cells).
	Grows   int `json:"grows"`
	Shrinks int `json:"shrinks"`
	// Migrations sums accepted voluntary migrations (affinity cells).
	Migrations int `json:"migrations,omitempty"`
	// Retunes counts EvRetune events in the cell's trace (zero in fixed
	// cells).
	Retunes int `json:"retunes"`
	Trace
}

// AutoDeltaWorkload is one workload's grid plus the controller verdict.
type AutoDeltaWorkload struct {
	// Workload is "pingpong", "service", or "affinity".
	Workload string `json:"workload"`
	// Fixed holds one point per AutoDeltaConfig.Ticks entry.
	Fixed []AutoDeltaPoint `json:"fixed"`
	// Auto is the controller cell.
	Auto AutoDeltaPoint `json:"auto"`
	// BestFixed indexes the highest-scoring fixed cell.
	BestFixed int `json:"best_fixed"`
	// AutoMatchesBest reports Auto.Score >= best fixed score scaled by
	// (1 - Tolerance).
	AutoMatchesBest bool `json:"auto_matches_best"`
}

// AutoDeltaSweepResult is the whole E23 run.
type AutoDeltaSweepResult struct {
	Config AutoDeltaConfig `json:"config"`
	// Workloads holds pingpong, service, affinity in that order.
	Workloads []AutoDeltaWorkload `json:"workloads"`
	// ReplayMatches reports the determinism check: the affinity
	// controller cell run twice gave one value and one trace.
	ReplayMatches bool `json:"replay_matches"`
}

// autoDeltaWorkloads are E23's workloads, in the order of its grid.
var autoDeltaWorkloads = []string{"pingpong", "service", "affinity"}

// service and affinity are the E19 and E21 configs the service and
// affinity cells run.
func (c AutoDeltaConfig) service() ServiceConfig {
	return ServiceConfig{Duration: c.ServiceDur, Rates: []float64{c.Rate}}.WithDefaults()
}

func (c AutoDeltaConfig) affinity() MigrationConfig {
	return MigrationConfig{Rate: c.Rate, Duration: c.AffinityDur}.WithDefaults()
}

// cluster is the cluster one cell runs on: the workload's size and
// options, and the segments' Δ — pinned at ticks in a fixed cell; in the
// controller cell (ticks < 0) the deliberately wrong SeedTicks the
// production-default controller starts from.
func (c AutoDeltaConfig) cluster(workload string, ticks int) (int, ipc.Config) {
	cfg := ipc.Config{Delta: time.Duration(ticks) * vaxmodel.ClockTick}
	if ticks < 0 {
		cfg.Delta = time.Duration(c.SeedTicks) * vaxmodel.ClockTick
		cfg.Engine.AutoDelta = &core.AutoDelta{}
	}
	switch workload {
	case "pingpong":
		return 2, cfg
	case "service":
		return c.service().Sites, cfg
	}
	// The affinity cells run E21's skewed scenario with placement on, so
	// the measured path includes voluntary migrations — and, in the
	// controller cell, tuned Δs shipping in the migration records.
	mcfg := c.affinity()
	cfg.Engine.Reliability = failoverRel()
	cfg.Engine.Failover = &core.Failover{}
	cfg.Engine.Placement = mcfg.Policy()
	return mcfg.Sites, cfg
}

// run drives one workload on cl and scores it: ping-pong cycles/s, or
// the service and affinity rungs' goodput and p99. Ping-pong runs for
// Warmup+PingPongDur but only cycles completed after the warmup count,
// so the controller cell is scored on its converged Δ rather than its
// transient — and every fixed cell is scored over the identical window.
func (c AutoDeltaConfig) run(workload string, cl *ipc.Cluster) (float64, time.Duration) {
	var rung load.Rung
	switch workload {
	case "pingpong":
		st := runPingPong(cl, 0, 1, PingPongConfig{UseYield: true}, 512, c.Warmup+c.PingPongDur)
		warm := 0
		cl.Site(0).Spawn("warmup-mark", 0, func(p *ipc.Proc) {
			p.Sleep(c.Warmup)
			warm = st.cycles
		})
		cl.Run()
		return float64(st.cycles-warm) / c.PingPongDur.Seconds(), 0
	case "service":
		scfg := c.service()
		rung = RunService(cl, scfg, c.Rate, app.NewStats(scfg.Shards), nil)
	default:
		mcfg := c.affinity()
		rung = RunAffinity(cl, mcfg, false, app.NewStats(mcfg.Shards), nil)
	}
	return rung.Goodput, time.Duration(rung.Latency.P99)
}

// cell runs one workload×cell on its own traced cluster.
func (c AutoDeltaConfig) cell(workload string, ticks int) AutoDeltaPoint {
	n, cfg := c.cluster(workload, ticks)
	p := AutoDeltaPoint{DeltaTicks: ticks}
	p.Trace = simulate(n, cfg, func(cl *ipc.Cluster) {
		p.Score, p.P99 = c.run(workload, cl)
		for i := 0; i < cl.Sites(); i++ {
			st := cl.Site(i).Eng.Stats()
			p.Denials += st.BusyReplies
			p.Grows += st.DeltaGrows
			p.Shrinks += st.DeltaShrinks
			p.Migrations += st.Migrations
		}
		p.Retunes = count(cl, obs.EvRetune)
	})
	return p
}

// AutoDeltaSweep runs the E23 grid: per workload, every fixed-Δ cell
// plus the controller cell, all on private deterministic clusters fanned
// across the worker pool, and replays the last (the affinity controller
// cell). Every trace is verified with the configuration its cluster
// implies: the controller cells' with Delta = AutoDelta.Min (zero at the
// production default, which disables only the window invariant; the
// single-writer, serialization, and data-oracle invariants still apply).
func AutoDeltaSweep(cfg AutoDeltaConfig) AutoDeltaSweepResult {
	cfg = cfg.WithDefaults()
	type cell struct {
		workload string
		ticks    int
	}
	var grid []cell
	for _, wl := range autoDeltaWorkloads {
		for _, k := range append(cfg.Ticks[:len(cfg.Ticks):len(cfg.Ticks)], -1) {
			grid = append(grid, cell{wl, k})
		}
	}
	pts, replay := sweepReplayed(grid, func(g cell) AutoDeltaPoint { return cfg.cell(g.workload, g.ticks) })
	r := AutoDeltaSweepResult{Config: cfg, ReplayMatches: replay}
	nt := len(cfg.Ticks)
	for w, name := range autoDeltaWorkloads {
		cells := pts[w*(nt+1) : (w+1)*(nt+1)]
		wl := AutoDeltaWorkload{Workload: name, Fixed: cells[:nt:nt], Auto: cells[nt]}
		for i, p := range wl.Fixed {
			if p.Score > wl.Fixed[wl.BestFixed].Score {
				wl.BestFixed = i
			}
		}
		wl.AutoMatchesBest = wl.Auto.Score >= wl.Fixed[wl.BestFixed].Score*(1-cfg.Tolerance)
		r.Workloads = append(r.Workloads, wl)
	}
	return r
}

// WriteFindings renders the FINDINGS-style verdict: per workload, the
// fixed grid, the controller cell, whether it matched the best fixed Δ,
// and what the trace check found over the workload's cells.
func (r AutoDeltaSweepResult) WriteFindings(w io.Writer) {
	cfg := r.Config.WithDefaults()
	fmt.Fprintf(w, "E23 — closed-loop Δ tuning (seed Δ %d ticks, grid %v, tolerance %.0f%%)\n",
		cfg.SeedTicks, cfg.Ticks, cfg.Tolerance*100)
	fmt.Fprintf(w, "Hypothesis: started from a deliberately wrong Δ, Options.AutoDelta matches the\n")
	fmt.Fprintf(w, "best fixed Δ on every workload (within tolerance), with every traced run clean\n")
	fmt.Fprintf(w, "under the coherence checker at the Delta = Min sound bound.\n")
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "[%s]\n", wl.Workload)
		for _, p := range wl.Fixed {
			fmt.Fprintf(w, "  Δ=%2d ticks: score %8.1f  denials %6d", p.DeltaTicks, p.Score, p.Denials)
			if p.P99 > 0 {
				fmt.Fprintf(w, "  p99 %v", p.P99)
			}
			if p.Migrations > 0 {
				fmt.Fprintf(w, "  migrations %d", p.Migrations)
			}
			fmt.Fprintln(w)
		}
		best := wl.Fixed[wl.BestFixed]
		fmt.Fprintf(w, "  auto (seed %d): score %8.1f  denials %6d  %d grows / %d shrinks / %d retunes",
			cfg.SeedTicks, wl.Auto.Score, wl.Auto.Denials, wl.Auto.Grows, wl.Auto.Shrinks, wl.Auto.Retunes)
		if wl.Auto.P99 > 0 {
			fmt.Fprintf(w, "  p99 %v", wl.Auto.P99)
		}
		if wl.Auto.Migrations > 0 {
			fmt.Fprintf(w, "  migrations %d", wl.Auto.Migrations)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  best fixed: Δ=%d ticks (score %.1f)\n", best.DeltaTicks, best.Score)
		fmt.Fprintf(w, "  auto matches best fixed: %s\n", Verdict(wl.AutoMatchesBest))
		viols := len(wl.Auto.Violations)
		for _, p := range wl.Fixed {
			viols += len(p.Violations)
		}
		fmt.Fprintf(w, "  traced run clean: %s (%d violations)\n", Verdict(viols == 0), viols)
	}
}
