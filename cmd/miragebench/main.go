// Command miragebench regenerates every quantitative table and figure
// of the Mirage paper's evaluation (§7–§8) on the calibrated
// simulator, printing measured values beside the paper's.
//
// Usage:
//
//	miragebench [-e all|e1,e4,e5,...] [-dur 20s] [-quick] [-par N] [-out bench.json]
//	            [-trace run.jsonl] [-metrics]
//
// Experiment IDs follow DESIGN.md's per-experiment index. -quick cuts
// run lengths for a fast smoke pass. -par caps the sweep worker pool
// (0 = GOMAXPROCS); results are identical at any setting. -out writes
// a machine-readable benchmark record (wall times per experiment plus
// each sweep's grid) to the given file; the live data path is priced by
// bench/ (bash bench/run.sh).
//
// E16 re-runs the Figure 7 Δ-sweep with the observability layer on.
// -trace saves the Δ = quantum point's protocol trace (schema-v1
// JSONL, for miragetrace); -metrics prints each point's denial
// histogram in full.
//
// Every point of a simulated sweep — E14, E16, E18, E19, E21, E22, E23
// and E20's checked runs — is traced and verified through the one
// harness (ipc.Cluster.VerifyTrace: the history checker, the event-order
// check and the end-of-run idle checks, configured from the point's own
// cluster); a violation is printed and fails the command, except on
// E19's ladders, whose counts are reported. E14, E18, E19, E21, E22 and
// E23 each re-run their last point and compare the trace sha256 and the
// point's value: "replay determinism", which fails the command when it
// does not hold.
//
// E17 runs the coherence model checker (internal/check): a bounded
// exhaustive enumeration of every schedule of a tiny contended
// scenario, plus a seed-swept random walk under an adversarial fault
// plan — any invariant violation fails the command.
//
// E18 fail-stops the library site — then each successor — under a
// contended counter workload and measures takeover cost: recovery
// latency per crash and end-to-end throughput versus crash count;
// -trace saves the deepest point's trace for miragetrace.
//
// E20 breaks the 64-site wall: it sweeps cluster size to N=1000 on
// the calibrated simulator under a read-all-then-write-one workload
// and compares the paper's flat unicast invalidation against the
// k-ary fan-out tree (Options.InvalFanout) at several arities,
// measuring the library site's per-write-fault sends, invalidation
// latency, wire bytes, and CPU share. It then re-runs an N=100 point
// with the tracer attached — clean, and under chaos plans crashing an
// interior relay site and a leaf — and verifies every trace with the
// coherence checker; -out records the full grid and the checked runs.
//
// E19 runs the service-saturation ladder: the sharded session store
// (internal/app) under deterministic open-loop load (internal/load) on
// a rising rate ladder, on the calibrated simulator — clean and under
// a chaos plan — and again over a real loopback-TCP cluster through
// the public store API. All ladders are scored identically (knee rung,
// first SLO-violating rung, liveness below the knee); -out records the
// knee and the p99 at the last sustained rung per ladder.
//
// E22 prices consensus-replicated library records
// (Options.Replication): a replication-factor × failure-mode grid over
// a contended counter workload measures the standby cost of quorum
// gating while nothing fails, the takeover latency of the log election
// against E18's holder rebuild (isolated and correlated crashes), and
// the degraded and fallback modes, the replication invariants among
// the checks; -out records the full grid.
//
// E21 prices voluntary library migration (Options.Placement): the
// affinity workload runs skewed (every shard mis-homed for the whole
// run) and shifting (matched at first, hotspot rotates at half-time),
// each with placement off and on; the shifting+on run's voluntary
// handoffs — each an epoch bump mid-load — are counted from its trace;
// -out records all four cells.
//
// E23 closes the Δ loop (Options.AutoDelta): on three workloads — the
// E16 ping-pong worst case, an E19 service rung, and the E21 skewed
// affinity scenario with migration on — a fixed-Δ grid runs beside one
// controller cell seeded at a deliberately wrong Δ, whose trace verifies
// at the Delta = Min sound bound. The command fails unless the
// controller matches the best fixed Δ within tolerance on every
// workload; -out records the full grid.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"mirage"
	"mirage/internal/check"
	"mirage/internal/exp"
	"mirage/internal/load"
	"mirage/internal/vaxmodel"
)

// benchRecord is the -out JSON shape: enough to compare experiment
// results and harness performance across commits.
type benchRecord struct {
	GOOS        string             `json:"goos"`
	GOARCH      string             `json:"goarch"`
	CPUs        int                `json:"cpus"`
	Parallelism int                `json:"parallelism"` // 0 = GOMAXPROCS
	Quick       bool               `json:"quick"`
	Experiments []experimentWall   `json:"experiments"`
	TotalWallS  float64            `json:"total_wall_seconds"`
	Service     *serviceRecord     `json:"service,omitempty"`
	Scale       *scaleRecord       `json:"scale,omitempty"`
	Migration   *migrationRecord   `json:"migration,omitempty"`
	Replication *replicationRecord `json:"replication,omitempty"`
	AutoDelta   *autodeltaRecord   `json:"autodelta,omitempty"`
}

// autodeltaRecord is the E23 section of the -out record: per workload,
// the fixed-Δ grid beside the controller cell and its verdicts, plus
// the determinism check.
type autodeltaRecord struct {
	Workloads     []exp.AutoDeltaWorkload `json:"workloads"`
	ReplayMatches bool                    `json:"replay_matches"`
}

// replicationRecord is the E22 section of the -out record: the
// replication-factor × failure-mode grid plus the determinism check.
type replicationRecord struct {
	Points        []exp.ReplicationPoint `json:"points"`
	ReplayMatches bool                   `json:"replay_matches"`
}

// migrationRecord is the E21 section of the -out record: the
// scenario × placement grid plus the traced run's handoff count and
// the determinism check.
type migrationRecord struct {
	Points          []exp.MigrationPoint `json:"points"`
	TraceMigrations int                  `json:"trace_migrations"`
	TraceEvents     int                  `json:"trace_events"`
	TraceViolations int                  `json:"trace_violations"`
	ReplayMatches   bool                 `json:"replay_matches"`
}

// scaleRecord is the E20 section of the -out record: the full
// size × arity grid plus the trace-verified runs.
type scaleRecord struct {
	Points  []exp.ScalePoint       `json:"points"`
	Checked []exp.ScaleCheckResult `json:"checked"`
}

type experimentWall struct {
	ID    string  `json:"id"`
	WallS float64 `json:"wall_seconds"`
}

// serviceRecord is the E19 section of the -out record: per ladder, the
// saturation knee and the tail latency at the last sustained rung
// (half the knee's offered rate on the default doubling ladder).
type serviceRecord struct {
	ReplayMatches bool                  `json:"replay_matches"`
	Ladders       []serviceLadderRecord `json:"ladders"`
}

type serviceLadderRecord struct {
	Transport     string      `json:"transport"`
	Chaos         bool        `json:"chaos"`
	Events        int         `json:"verified_events"` // 0 on the live ladder: not verified
	Violations    int         `json:"violations"`
	KneeRung      int         `json:"knee_rung"` // -1 = no rung saturated
	KneeRate      float64     `json:"knee_rate_rps,omitempty"`
	P99AtHalfKnee int64       `json:"p99_at_half_knee_ns,omitempty"`
	Rungs         []load.Rung `json:"rungs"`
}

func serviceRecordOf(r exp.ServiceSweepResult) *serviceRecord {
	rec := &serviceRecord{ReplayMatches: r.ReplayMatches}
	for _, l := range r.Ladders {
		lr := serviceLadderRecord{Transport: l.Transport, Chaos: l.Chaos, Events: l.Events, Violations: l.Violations,
			KneeRung: l.Knee, Rungs: l.Rungs}
		if l.Knee >= 0 {
			lr.KneeRate = l.Rungs[l.Knee].Rate
		}
		if l.Knee >= 1 {
			lr.P99AtHalfKnee = l.Rungs[l.Knee-1].Latency.P99
		}
		rec.Ladders = append(rec.Ladders, lr)
	}
	return rec
}

// liveServiceLadder runs the E19 ladder over a real loopback-TCP
// cluster through the public store API, one shared store served by
// every site, same op streams and scoring as the simulated ladders.
func liveServiceLadder(cfg exp.ServiceConfig) ([]load.Rung, error) {
	cfg = cfg.WithDefaults()
	c, err := mirage.NewCluster(cfg.Sites, mirage.Options{TCP: true})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	stores, err := c.OpenStores(cfg.AppConfig())
	if err != nil {
		return nil, err
	}
	rungs := make([]load.Rung, 0, len(cfg.Rates))
	for _, rate := range cfg.Rates {
		spec := cfg.Spec(rate)
		rungs = append(rungs, load.RunLive(spec, func(frontend int, op load.Op) (bool, error) {
			// Lane f maps to site f / Workers, as in the simulator.
			return load.Execute(stores[frontend/cfg.Workers], spec, op)
		}))
	}
	return rungs, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("miragebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	which := fs.String("e", "all", "comma-separated experiment ids (e1..e23) or 'all'")
	dur := fs.Duration("dur", 20*time.Second, "virtual run length per measurement point")
	quick := fs.Bool("quick", false, "short runs for a smoke pass")
	par := fs.Int("par", 0, "sweep worker pool size (0 = GOMAXPROCS); any value gives identical results")
	out := fs.String("out", "", "write a JSON benchmark record to this file")
	tracePath := fs.String("trace", "", "e16/e18: write a protocol trace (JSONL) to this file; e18's deepest-crash trace wins when both run")
	metrics := fs.Bool("metrics", false, "e16: print each point's denial_remaining_ns histogram")
	if fs.Parse(args) != nil {
		return 2
	}

	if *quick {
		*dur = 5 * time.Second
	}
	exp.Parallelism = *par
	rec := benchRecord{
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		Parallelism: *par,
		Quick:       *quick,
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*which, ",") {
		want[strings.TrimSpace(strings.ToLower(id))] = true
	}
	all := want["all"]
	code := 0
	totalStart := time.Now()
	run := func(id, title string, fn func()) {
		if !all && !want[id] {
			return
		}
		fmt.Fprintf(stdout, "== %s — %s ==\n", strings.ToUpper(id), title)
		start := time.Now()
		fn()
		wall := time.Since(start).Seconds()
		rec.Experiments = append(rec.Experiments, experimentWall{ID: id, WallS: wall})
		fmt.Fprintf(stdout, "   (%.2fs wall)\n\n", wall)
	}
	// verified prints what the sweep harness found in a simulated
	// point's trace, and fails the command on any violation.
	verified := func(label string, t exp.Trace) {
		for _, v := range t.Violations {
			fmt.Fprintf(stdout, "violation (%s): %v\n", label, v)
			code = 1
		}
	}
	// replay prints a sweep's determinism check — its last point run
	// again, trace sha256 and value compared — and fails the command
	// when it does not hold.
	replay := func(ok bool) {
		fmt.Fprintf(stdout, "replay determinism: %s\n", exp.Verdict(ok))
		if !ok {
			code = 1
		}
	}

	run("e1", "§7.1 component timings", func() {
		r := exp.ComponentTimings()
		t := exp.NewTable("measurement", "paper", "measured")
		t.Row("short message round trip", exp.PaperShortRTT, r.ShortRTT)
		t.Row("1 KB message + short reply", exp.PaperPagePlusReply, r.PagePlusReply)
		t.WriteTo(stdout)
	})

	run("e2", "Table 3: remote in-memory page fetch", func() {
		r := exp.Table3()
		t := exp.NewTable("operation", "paper", "model")
		for _, row := range r.Rows {
			t.Row(row.Name, row.Paper, row.Model)
		}
		t.Row("TOTAL (component sum)", r.PaperTotal, r.ModelTotal)
		t.Row("TOTAL ELAPSED (full simulator)", r.PaperTotal, r.MeasuredTotal)
		t.WriteTo(stdout)
	})

	run("e3", "§7.2 single-site worst case: yield() vs busy wait", func() {
		r := exp.SingleSiteWorstCase(*dur)
		t := exp.NewTable("variant", "paper cycles/s", "measured cycles/s")
		t.Row("busy wait", exp.PaperSingleSite.NoYield, r.NoYield)
		t.Row("yield()", exp.PaperSingleSite.WithYield, r.WithYield)
		t.Row("speedup", fmt.Sprintf("x%.0f", exp.PaperSingleSite.Speedup), fmt.Sprintf("x%.1f", r.Speedup))
		t.WriteTo(stdout)
	})

	run("e4", "Figure 7: two-site worst case vs Δ", func() {
		pts := exp.Figure7(*dur, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
		t := exp.NewTable("Δ (ticks)", "yield cycles/s", "busy-wait cycles/s", "yield/busy")
		for _, p := range pts {
			t.Row(p.DeltaTicks, p.Yield, p.NoYield, exp.Ratio(p.Yield, p.NoYield))
		}
		t.WriteTo(stdout)
		fmt.Fprintln(stdout, "paper anchors: yield(0)≈8, yield(2)≈4.5 (90% of the 5/s bound), ~1.5x yield advantage at Δ=2")
		tr := exp.MeasureWorstCaseTraffic(*dur, 0)
		fmt.Fprintf(stdout, "traffic at Δ=0: %.1f msgs/cycle (%.1f large); derived per-cycle bound %v (paper: 9 msgs, 3 large, 109 ms)\n",
			tr.MsgsPerCycle, tr.LargePerCycle, tr.DerivedBound.Round(time.Millisecond))
	})

	run("e4b", "N-site worst case (§7.2's ring variant)", func() {
		pts := exp.NSiteWorstCase(*dur, []int{2, 3, 4, 6, 8})
		t := exp.NewTable("sites", "ring rotations/s", "msgs/rotation")
		for _, p := range pts {
			t.Row(p.Sites, p.CyclesPerSec, p.MsgsPerCycle)
		}
		t.WriteTo(stdout)
		fmt.Fprintln(stdout, "paper: \"in a network with a larger number of sites sharing pages than ours, invalidations may become expensive\" (§10.0)")
	})

	run("e5", "Figure 8: representative application vs Δ", func() {
		d := 10 * time.Second // the paper's run length
		if *quick {
			d = 5 * time.Second
		}
		deltas := []time.Duration{
			0, 30 * time.Millisecond, 60 * time.Millisecond, 120 * time.Millisecond,
			300 * time.Millisecond, 450 * time.Millisecond, 600 * time.Millisecond,
			750 * time.Millisecond, 900 * time.Millisecond, 1200 * time.Millisecond,
			2400 * time.Millisecond,
		}
		pts := exp.Figure8(exp.CountersConfig{Duration: d}, deltas)
		t := exp.NewTable("Δ", "read-write insn/s", "bar")
		for _, p := range pts {
			t.Row(p.Delta, int(p.InsnPerSec), strings.Repeat("#", int(p.InsnPerSec/4000)))
		}
		t.WriteTo(stdout)
		fmt.Fprintf(stdout, "paper: maximum 115,000 insn/s at Δ=600 ms; contention side Δ<120 ms poor; retention side gradual\n")
	})

	run("e6", "§7.3 thrashing amelioration (bystander throughput)", func() {
		pts := exp.ThrashingAmelioration(*dur, []int{0, 2, 4, 6, 8})
		t := exp.NewTable("Δ (ticks)", "app cycles/s", "bystander units/s")
		for _, p := range pts {
			t.Row(p.DeltaTicks, p.AppCycles, p.BystanderUnits)
		}
		t.WriteTo(stdout)
		fmt.Fprintln(stdout, "paper: raising Δ cuts the thrashing app's throughput but improves other processes")
	})

	run("e7", "§7.1 invalidation policy ablation", func() {
		d := 10 * time.Second
		if *quick {
			d = 5 * time.Second
		}
		pts := exp.InvalidationAblation(exp.CountersConfig{Duration: d},
			[]time.Duration{120 * time.Millisecond, 600 * time.Millisecond, 900 * time.Millisecond})
		t := exp.NewTable("policy", "Δ", "insn/s", "retries")
		for _, p := range pts {
			t.Row(p.Policy.String(), p.Delta, int(p.InsnPerSec), p.Retries)
		}
		t.WriteTo(stdout)
		fmt.Fprintln(stdout, "paper: the prototype always retried; honor-close and queue are its proposed fixes")
	})

	run("e8", "§8.0 dynamic Δ tuning", func() {
		d := 10 * time.Second
		if *quick {
			d = 5 * time.Second
		}
		r := exp.DynamicDelta(exp.CountersConfig{Duration: d})
		t := exp.NewTable("Δ", "fixed insn/s", "AutoDelta seeded there, insn/s")
		for i, d := range exp.DynamicDeltas {
			t.Row(d, int(r.Fixed[i]), int(r.Adaptive[i]))
		}
		t.WriteTo(stdout)
		fmt.Fprintln(stdout, "paper: the tuning routine exists but ships disabled; AutoDelta is ours, and on this workload it trails the best fixed Δ (E30)")
	})

	run("e9", "§7.2 test&set spinlock", func() {
		r := exp.TestAndSetScenario(*dur, []int{0, 2, 4})
		t := exp.NewTable("configuration", "writer crit-sections/s", "page transfers")
		t.Row("no remote tester", r.Solo, "-")
		for _, p := range r.Points {
			t.Row(fmt.Sprintf("tester, Δ=%d ticks", p.DeltaTicks), p.CritPerSec, p.PageMoves)
		}
		t.WriteTo(stdout)
		fmt.Fprintln(stdout, "paper: test&set degrades the writer substantially; it recommends against the instruction")
	})

	run("e10", "baseline: Mirage vs IVY (centralized manager SVM)", func() {
		pts := exp.BaselineComparison(*dur)
		t := exp.NewTable("system", "workload", "throughput", "unit", "page transfers")
		for _, p := range pts {
			t.Row(p.System, p.Workload, p.Throughput, p.Unit, p.PageMoves)
		}
		t.WriteTo(stdout)
	})

	run("e12", "§8.0 hot-spot organization (per-page Δ)", func() {
		rs := exp.HotSpots(*dur)
		t := exp.NewTable("window assignment", "hot exchanges/s", "cold insn/s")
		for _, r := range rs {
			t.Row(r.Config, r.HotOps, int(r.ColdInsn))
		}
		t.WriteTo(stdout)
		fmt.Fprintln(stdout, "paper: with hot spots inside one segment, \"per-page Δs may be useful\"")
	})

	run("e13", "§9.0 real-time Δ under site load", func() {
		r := exp.LoadSensitivity(*dur)
		t := exp.NewTable("site 1 configuration", "site 1 insn/s")
		t.Row("unloaded", int(r.UnloadedInsn))
		t.Row("sharing the CPU with a hog", int(r.LoadedInsn))
		t.WriteTo(stdout)
		fmt.Fprintf(stdout, "effective window lost to load: %.0f%% — §9.0: \"The load would decrease the effective Δ\"\n", 100*r.EffectiveDrop)
	})

	run("e14", "beyond the paper: resilience under injected faults", func() {
		perSite := 20
		if *quick {
			perSite = 8
		}
		r := exp.FaultSweep(perSite, []float64{0, 2, 5, 10})
		t := exp.NewTable("drop rate", "completed", "elapsed", "retransmits", "dup-drops", "gave-up", "net drops")
		for _, p := range r.Points {
			t.Row(fmt.Sprintf("%.0f%%", p.DropPct), p.Completed, p.Elapsed.Round(time.Millisecond),
				p.Retransmits, p.DupDrops, p.GaveUp, p.NetDropped)
		}
		t.Row("crash 0.1–0.4s", r.Crash.Completed, r.Crash.Elapsed.Round(time.Millisecond),
			r.Crash.Retransmits, r.Crash.DupDrops, r.Crash.GaveUp, r.Crash.NetDropped)
		t.WriteTo(stdout)
		for _, p := range r.Points {
			verified(fmt.Sprintf("drop %g%%", p.DropPct), p.Trace)
		}
		verified("crash", r.Crash.Trace)
		replay(r.ReplayMatches)
		fmt.Fprintln(stdout, "paper: §10.0 \"the current implementation does not tolerate site failures\"; this sweep measures the cost of fixing that")
	})

	run("e16", "Figure 7 Δ-sweep under full observability (E16)", func() {
		ticks := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
		pts := exp.DeltaDenialSweep(*dur, ticks)
		t := exp.NewTable("Δ (ticks)", "cycles/s", "denials", "retries", "mean remaining", "max remaining", "events")
		for _, p := range pts {
			t.Row(p.DeltaTicks, p.CyclesPerSec, p.Denials, p.Retries,
				time.Duration(p.Remaining.Mean).Round(10*time.Microsecond),
				time.Duration(p.Remaining.Max).Round(10*time.Microsecond), p.Events)
		}
		t.WriteTo(stdout)
		for _, p := range pts {
			verified(fmt.Sprintf("Δ=%d ticks", p.DeltaTicks), p.Trace)
		}
		fmt.Fprintf(stdout, "crossover at Δ = 1 scheduling quantum (%d ticks, %v): denials fall as 1/Δ while the\n",
			vaxmodel.QuantumTicks, vaxmodel.Quantum)
		fmt.Fprintln(stdout, "remaining time at each denial grows with Δ; past the quantum the denied holder is")
		fmt.Fprintln(stdout, "preempted before it can use the protected window, so the excess is pure latency")
		if *metrics {
			for _, p := range pts {
				fmt.Fprintf(stdout, "\nΔ=%d ticks: ", p.DeltaTicks)
				p.Remaining.WriteTo(stdout)
			}
		}
		if *tracePath != "" {
			for _, p := range pts {
				if p.DeltaTicks != vaxmodel.QuantumTicks {
					continue
				}
				if err := os.WriteFile(*tracePath, p.TraceJSONL, 0o644); err != nil {
					fmt.Fprintf(stderr, "miragebench: write %s: %v\n", *tracePath, err)
					code = 1
					return
				}
				fmt.Fprintf(stdout, "trace (Δ=%d ticks): %s\n", p.DeltaTicks, *tracePath)
			}
		}
	})

	run("e17", "coherence model check: schedule exploration (E17)", func() {
		// Exhaustive half: every schedule of a contended two-site
		// write/read scenario with a live Δ window, all three
		// invalidation policies.
		t := exp.NewTable("policy", "schedules", "choice points", "deepest", "max branch", "complete", "violations")
		for pol := 0; pol <= 2; pol++ {
			sc := check.Scenario{
				Sites: 2, Pages: 1, Delta: 10 * time.Millisecond, Policy: pol,
				Ops: []check.Op{
					{Site: 0, Page: 0, Write: true, Val: 7},
					{Site: 1, Page: 0, Write: true, Val: 9},
					{Site: 0, Page: 0},
					{Site: 1, Page: 0},
				},
			}
			res := check.Exhaustive(sc, check.ExploreOpts{})
			t.Row(pol, res.Runs, res.ChoicePoints, res.Deepest, res.MaxBranch, res.Complete, len(res.Violations))
			if len(res.Violations) > 0 {
				for _, v := range res.Violations {
					fmt.Fprintf(stdout, "violation: %v\n", v)
				}
				code = 1
			}
		}
		t.WriteTo(stdout)

		// Random-walk half: seed-swept schedules of a larger config
		// composed with an adversarial fault plan (reliability on).
		nSeeds := int64(8)
		if *quick {
			nSeeds = 4
		}
		seeds := make([]int64, 0, nSeeds)
		for s := int64(1); s <= nSeeds; s++ {
			seeds = append(seeds, s)
		}
		chaotic := check.Scenario{
			Sites: 3, Pages: 2, Delta: 5 * time.Millisecond, Policy: 2,
			Chaos: "drop p=0.15; dup p=0.1; delay p=0.2 max=5ms",
		}
		res := check.RandomWalk(chaotic, seeds, check.ExploreOpts{OpsPerWalk: 10})
		fmt.Fprintf(stdout, "random walk under chaos: %d seeds, %d choice points, %d violations\n",
			res.Runs, res.ChoicePoints, len(res.Violations))
		if len(res.Violations) > 0 {
			for _, v := range res.Violations {
				fmt.Fprintf(stdout, "violation: %v\n", v)
			}
			code = 1
		}
		fmt.Fprintln(stdout, "paper: §4–§6 protocol rules as machine-checked invariants; see DESIGN.md §10")
	})

	run("e18", "beyond the paper: library-site failover sweep (E18)", func() {
		perSite := 20
		if *quick {
			perSite = 8
		}
		r := exp.FailoverSweep(perSite, []int{0, 1, 2})
		t := exp.NewTable("library crashes", "completed", "elapsed", "inc/s",
			"failovers", "recoveries", "mean recovery", "max epoch", "stale fenced")
		for _, p := range r.Points {
			mean := "-"
			if len(p.RecoverLatency) > 0 {
				var sum time.Duration
				for _, d := range p.RecoverLatency {
					sum += d
				}
				mean = (sum / time.Duration(len(p.RecoverLatency))).Round(time.Millisecond).String()
			}
			t.Row(p.Crashes, p.Completed, p.Elapsed.Round(time.Millisecond),
				fmt.Sprintf("%.1f", p.Throughput), p.Failovers, p.Recoveries,
				mean, p.MaxEpoch, p.StaleEpoch)
		}
		t.WriteTo(stdout)
		replay(r.ReplayMatches)
		// Takeover must not cost correctness, only latency.
		for _, p := range r.Points {
			verified(fmt.Sprintf("crashes=%d", p.Crashes), p.Trace)
		}
		if code == 0 {
			fmt.Fprintln(stdout, "all multi-epoch traces verify coherent")
		}
		if *tracePath != "" {
			deepest := r.Points[len(r.Points)-1]
			if err := os.WriteFile(*tracePath, deepest.TraceJSONL, 0o644); err != nil {
				fmt.Fprintf(stderr, "miragebench: write %s: %v\n", *tracePath, err)
				code = 1
				return
			}
			fmt.Fprintf(stdout, "trace (%d crashes): %s\n", deepest.Crashes, *tracePath)
		}
		fmt.Fprintln(stdout, "paper: §10.0 \"the current implementation does not tolerate site failures\" — E18 adds the tolerance and prices it")
	})

	run("e19", "beyond the paper: service saturation ladder (E19)", func() {
		cfg := exp.ServiceConfig{Chaos: true}
		if *quick {
			cfg.Rates = []float64{25, 400}
			cfg.Duration = 2 * time.Second
		}
		cfg = cfg.WithDefaults()
		r := exp.ServiceSweep(cfg)

		// The live ladder serves the same op streams wall clock, so its
		// rung windows are kept short; scoring is identical.
		liveCfg := cfg
		liveCfg.Duration = time.Second
		if *quick {
			liveCfg.Duration = 500 * time.Millisecond
		}
		if rungs, err := liveServiceLadder(liveCfg); err != nil {
			fmt.Fprintf(stderr, "miragebench: live e19 ladder: %v\n", err)
			code = 1
		} else {
			r.Ladders = append(r.Ladders, exp.ScoreLadder("live-tcp", false, liveCfg, rungs))
		}

		for _, l := range r.Ladders {
			name := l.Transport
			if l.Chaos {
				name += "+chaos"
			}
			fmt.Fprintf(stdout, "[%s]\n", name)
			load.WriteTable(stdout, l.Rungs)
			fmt.Fprintln(stdout)
		}
		r.WriteFindings(stdout)
		replay(r.ReplayMatches)
		for _, l := range r.Ladders {
			if !l.LivenessBelowKnee {
				fmt.Fprintf(stdout, "liveness violated below the knee on %s\n", l.Transport)
				code = 1
			}
		}
		rec.Service = serviceRecordOf(r)
	})

	run("e20", "beyond the paper: scaling past 64 sites — flat vs tree invalidation (E20)", func() {
		pts := exp.ScaleSweep(*quick)
		t := exp.NewTable("sites", "fanout", "lib sends/fault", "inval ms", "KB/fault", "lib CPU", "relays")
		byGrid := map[[2]int]exp.ScalePoint{}
		maxN := 0
		for _, p := range pts {
			fan := "flat"
			if p.Fanout > 0 {
				fan = fmt.Sprintf("k=%d", p.Fanout)
			}
			t.Row(p.Sites, fan, fmt.Sprintf("%.1f", p.LibSends),
				fmt.Sprintf("%.1f", p.InvalLatMs), fmt.Sprintf("%.1f", p.KBFault),
				fmt.Sprintf("%.1f%%", 100*p.LibCPU), p.Relays)
			byGrid[[2]int{p.Sites, p.Fanout}] = p
			if p.Sites > maxN {
				maxN = p.Sites
			}
		}
		t.WriteTo(stdout)
		flat := byGrid[[2]int{maxN, 0}]
		for _, k := range []int{4, 8, 16} {
			tree, ok := byGrid[[2]int{maxN, k}]
			if !ok || tree.LibSends <= 0 {
				continue
			}
			fmt.Fprintf(stdout, "N=%d k=%d: library sends per write fault %.1f vs %.1f flat (x%.1f reduction)\n",
				maxN, k, tree.LibSends, flat.LibSends, flat.LibSends/tree.LibSends)
		}

		// Trace-verified runs: clean, then chaos crashing an interior
		// relay root (orders give up at the clock) and a leaf (the
		// relay reports KInvalFail and the clock falls back).
		checkN, checkK := 100, 8
		if *quick {
			checkN, checkK = 20, 4
		}
		roots := exp.ScaleRelayRoots(checkN, checkK)
		interior := roots[1]
		specs := []string{
			"",
			fmt.Sprintf("seed=7; crash site=%d from=2200ms until=10s", interior),
			fmt.Sprintf("seed=7; crash site=%d from=2200ms until=10s", interior+1),
		}
		var checked []exp.ScaleCheckResult
		for _, spec := range specs {
			r, err := exp.ScaleChecked(checkN, checkK, spec)
			if err != nil {
				fmt.Fprintf(stderr, "miragebench: e20 checked run %q: %v\n", spec, err)
				code = 1
				continue
			}
			checked = append(checked, r)
			name := "clean"
			if spec != "" {
				name = spec
			}
			fmt.Fprintf(stdout, "checked N=%d k=%d [%s]: %d events, %d violations\n",
				checkN, checkK, name, r.Events, len(r.Violations))
			verified(name, r.Trace)
		}
		rec.Scale = &scaleRecord{Points: pts, Checked: checked}
		fmt.Fprintln(stdout, "paper: §10.0 \"invalidations may become expensive\" — the fan-out tree caps the library's share at O(k)")
	})

	run("e21", "beyond the paper: voluntary library migration under skewed and shifting hotspots (E21)", func() {
		cfg := exp.MigrationConfig{}
		if *quick {
			cfg.Duration = 4 * time.Second
		}
		r := exp.MigrationSweep(cfg)
		t := exp.NewTable("scenario", "placement", "goodput", "p50", "p99", "errors", "migrations", "refused", "fenced")
		for _, p := range r.Points {
			placement := "off"
			if p.Placement {
				placement = "on"
			}
			t.Row(p.Scenario, placement, fmt.Sprintf("%.1f", p.Rung.Goodput),
				time.Duration(p.Rung.Latency.P50), time.Duration(p.Rung.Latency.P99),
				p.Rung.Errors, p.Migrations, p.Refused, p.StaleEpoch)
		}
		t.WriteTo(stdout)
		r.WriteFindings(stdout)
		replay(r.ReplayMatches)
		// Every voluntary handoff bumps the segment epoch mid-load, and
		// the multi-epoch stream must still verify coherent.
		for _, p := range r.Points {
			verified(fmt.Sprintf("%s placement=%v", p.Scenario, p.Placement), p.Trace)
		}
		on := r.Cell("shifting", true)
		fmt.Fprintf(stdout, "traced shifting+placement run: %d events, %d voluntary handoffs, %d violations\n",
			on.Events, on.Handoffs, len(on.Violations))
		rec.Migration = &migrationRecord{
			Points:          r.Points,
			TraceMigrations: on.Handoffs,
			TraceEvents:     on.Events,
			TraceViolations: len(on.Violations),
			ReplayMatches:   r.ReplayMatches,
		}
		fmt.Fprintln(stdout, "paper: the library site is fixed for a segment's lifetime — E21 lets it follow the demand and prices the win")
	})

	run("e23", "beyond the paper: closed-loop Δ tuning vs the best fixed Δ (E23)", func() {
		cfg := exp.AutoDeltaConfig{}
		if *quick {
			cfg = exp.AutoDeltaConfig{
				Ticks:       []int{0, 2, 6},
				PingPongDur: 6 * time.Second,
				ServiceDur:  2 * time.Second,
				AffinityDur: 6 * time.Second,
			}
		}
		r := exp.AutoDeltaSweep(cfg)
		t := exp.NewTable("workload", "cell", "score", "denials", "grows", "shrinks", "p99", "migrations")
		cell := func(wl string, p exp.AutoDeltaPoint) {
			name := fmt.Sprintf("Δ=%d ticks", p.DeltaTicks)
			if p.DeltaTicks < 0 {
				name = fmt.Sprintf("auto (seed %d)", r.Config.SeedTicks)
			}
			p99 := "-"
			if p.P99 > 0 {
				p99 = p.P99.Round(10 * time.Microsecond).String()
			}
			t.Row(wl, name, fmt.Sprintf("%.1f", p.Score), p.Denials, p.Grows, p.Shrinks, p99, p.Migrations)
		}
		for _, wl := range r.Workloads {
			for _, p := range wl.Fixed {
				cell(wl.Workload, p)
			}
			cell(wl.Workload, wl.Auto)
		}
		t.WriteTo(stdout)
		r.WriteFindings(stdout)
		replay(r.ReplayMatches)
		for _, wl := range r.Workloads {
			if !wl.AutoMatchesBest {
				code = 1
			}
			for _, p := range append(wl.Fixed, wl.Auto) {
				verified(fmt.Sprintf("%s Δ=%d ticks", wl.Workload, p.DeltaTicks), p.Trace)
			}
		}
		rec.AutoDelta = &autodeltaRecord{Workloads: r.Workloads, ReplayMatches: r.ReplayMatches}
		fmt.Fprintln(stdout, "paper: §8.0 \"a per-segment tuning routine exists but ships disabled\" — E23 turns the loop on per page and scores it against the offline optimum")
	})

	run("e22", "beyond the paper: consensus-replicated library records (E22)", func() {
		perSite := 20
		if *quick {
			perSite = 8
		}
		r := exp.ReplicationSweep(perSite)
		t := exp.NewTable("scenario", "R", "completed", "elapsed", "appends", "commits", "degraded",
			"elections", "recoveries", "recovery", "unavail", "events", "violations")
		for _, p := range r.Points {
			recLat := "-"
			if len(p.RecoverLatency) > 0 {
				var max time.Duration
				for _, d := range p.RecoverLatency {
					if d > max {
						max = d
					}
				}
				recLat = max.Round(time.Millisecond).String()
			}
			rep := "off"
			if p.Replicas > 0 {
				rep = fmt.Sprintf("%d", p.Replicas)
			}
			t.Row(p.Name, rep, p.Completed, p.Elapsed.Round(time.Millisecond),
				p.Appends, p.Commits, p.Degraded, p.Elections, p.Recoveries,
				recLat, fmt.Sprintf("%.0fms", p.UnavailMs), p.Events, len(p.Violations))
			if !p.Completed {
				code = 1
			}
		}
		t.WriteTo(stdout)
		for _, p := range r.Points {
			verified(fmt.Sprintf("%s R=%d", p.Name, p.Replicas), p.Trace)
		}
		replay(r.ReplayMatches)
		rec.Replication = &replicationRecord{Points: r.Points, ReplayMatches: r.ReplayMatches}
		fmt.Fprintln(stdout, "paper: §10.0 tolerates no site failures; E18 rebuilt records reactively — E22 replicates them ahead of the crash and prices both sides")
	})

	run("e11", "§6.2 lazy remap cost", func() {
		pts := exp.RemapCost([]int{1, 16, 64, 128, 256})
		t := exp.NewTable("mapped pages", "dispatch cost")
		for _, p := range pts {
			t.Row(p.Pages, p.DispatchCost)
		}
		t.WriteTo(stdout)
		fmt.Fprintf(stdout, "paper: %v–%v per 512-byte page, segments up to 128 KB (256 pages)\n",
			vaxmodel.RemapPerPageMin, vaxmodel.RemapPerPageMax)
	})

	rec.TotalWallS = time.Since(totalStart).Seconds()
	if *out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "miragebench: marshal record: %v\n", err)
			return 1
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(stderr, "miragebench: write %s: %v\n", *out, err)
			return 1
		}
		fmt.Fprintf(stdout, "benchmark record: %s (parallelism=%d over %d CPUs, %.2fs total wall)\n",
			*out, *par, rec.CPUs, rec.TotalWallS)
	}
	return code
}
