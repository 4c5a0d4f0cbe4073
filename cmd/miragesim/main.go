// Command miragesim runs one simulated Mirage scenario with explicit
// parameters and prints protocol, scheduler, and network statistics —
// the exploration tool behind the fixed sweeps in miragebench.
//
// Workloads:
//
//	pingpong — the §7.2 worst-case application (two sites)
//	counters — the §8.0 representative application (two sites)
//	readers  — one writer at the library plus N-1 polling readers
//	service  — the sharded session store under open-loop load (E19);
//	           -rate and -skew set the offered load, and the per-shard
//	           store counters join the stats tables and -runs digest
//	affinity — the service store with every site's lanes favoring
//	           shards whose libraries placement put one site over
//	           (E21); with -migrate the libraries rehome themselves
//	           to their dominant requesters mid-run
//
// Examples:
//
//	miragesim -workload pingpong -delta 33ms -dur 30s -yield=false
//	miragesim -workload counters -delta 600ms -dur 10s -trace /tmp/run.jsonl
//	miragesim -workload counters -delta 600ms -metrics
//	miragesim -workload readers -sites 4 -delta 100ms
//	miragesim -workload readers -sites 200 -fanout 8 -delta 20ms
//	miragesim -workload counters -chaos "drop p=0.05; delay p=0.3 max=20ms" -chaos-seed 7
//	miragesim -workload counters -delta 600ms -runs 8
//	miragesim -workload counters -delta 600ms -check
//	miragesim -workload readers -sites 3 -chaos "crash site=0 from=2s" -failover -check
//	miragesim -workload readers -sites 4 -replicas 2 -chaos "crash site=0 from=2s" -check
//	miragesim -workload service -sites 4 -rate 100 -skew zipf -dur 5s -metrics
//	miragesim -workload affinity -sites 4 -rate 150 -dur 16s -migrate -check
//	miragesim -workload pingpong -delta 100ms -autodelta -check
//
// -trace writes the run's protocol event timeline in the schema-v1
// JSONL encoding (docs/OBSERVABILITY.md); analyze it with miragetrace
// summarize/timeline/chrome/denials (summarize's per-page table is the
// §9.0 library reference log, as a view of the trace). -metrics dumps
// the observability counter registry after the run.
//
// -check records the run's trace (with per-access op events) and
// verifies it against the coherence invariants (internal/check); any
// violation is printed and the command exits 1. The virtual clock
// makes the check exact — no timestamp slack is needed.
//
// -failover turns on library-site failover (DESIGN.md §11): when a
// chaos plan fail-stops the library site, the next live site by number
// reconstructs its records from the survivors and resumes granting
// under a bumped library epoch. The flag implies the reliability
// layer; the per-site failover/recovery/fencing counters are printed
// after the run.
//
// -replicas R replicates each segment's library record to the R sites
// after the library in ID order (DESIGN.md §15, docs/REPLICATION.md):
// every record mutation is mirrored to a follower quorum before it is
// acknowledged, so when a chaos plan fail-stops the library the
// successor is elected from the replication group and installs from
// its log tail — no holder interrogation, no recovery pause. The flag
// implies -failover; the append/commit/degraded/election counters join
// the failover table.
//
// -autodelta turns on the per-page closed-loop Δ controller (DESIGN.md
// §16, docs/TUNING.md) at production defaults: -delta becomes the seed
// the controller walks away from, the per-site grow/shrink counters
// are printed after the run, and -check verifies the trace with the
// controller's Min as the window bound — the sound lower bound on
// every clamped grant.
//
// -migrate additionally lets a library voluntarily rehome a segment to
// the site that dominates its request demand (DESIGN.md §14,
// docs/PLACEMENT.md), reusing the failover epoch fence for the
// handoff. It implies -failover; the migrations/refused counters join
// the failover table.
//
// -runs N executes the scenario N times concurrently (one virtual
// cluster each) and verifies every run produced identical results —
// the simulator's determinism check, and a parallel speedup measure on
// multi-core hosts. With -trace the comparison includes a digest of
// each run's serialized trace, so the timeline itself is checked for
// bit-reproducibility (run 0's trace is the one written).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"mirage/internal/app"
	"mirage/internal/chaos"
	"mirage/internal/core"
	"mirage/internal/exp"
	"mirage/internal/ipc"
	"mirage/internal/load"
	"mirage/internal/mmu"
	"mirage/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "miragesim: "+format+"\n", a...)
		return 2
	}
	fs := flag.NewFlagSet("miragesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "pingpong", "pingpong | counters | readers | service | affinity")
	delta := fs.Duration("delta", 0, "time window Δ")
	dur := fs.Duration("dur", 10*time.Second, "virtual run length")
	sites := fs.Int("sites", 2, "number of sites (readers and service workloads)")
	fanout := fs.Int("fanout", 0, "invalidation fan-out tree arity k (0 or 1 = flat per-reader unicast)")
	rate := fs.Float64("rate", 50, "offered load in req/s (service workload)")
	skew := fs.String("skew", "zipf", "key popularity: uniform | zipf | hotspot (service workload)")
	yield := fs.Bool("yield", true, "use the yield() call in wait loops (pingpong)")
	policy := fs.String("policy", "retry", "invalidation policy: retry | honor-close | queue")
	tracePath := fs.String("trace", "", "write the protocol event trace (schema-v1 JSONL) to this file")
	metrics := fs.Bool("metrics", false, "dump the observability metrics registry after the run")
	chaosSpec := fs.String("chaos", "", `fault plan, e.g. "drop p=0.05; delay p=0.3 max=20ms; partition sites=1 from=2s until=3s"`)
	failover := fs.Bool("failover", false, "elect a successor library when the library site fail-stops (implies the ARQ layer)")
	migrate := fs.Bool("migrate", false, "let libraries voluntarily rehome hot segments to their dominant requester (implies -failover)")
	replicas := fs.Int("replicas", 0, "replicate library records to R follower sites for pauseless takeover (implies -failover)")
	autodelta := fs.Bool("autodelta", false, "close the Δ loop: per-page controller at production defaults (-delta seeds it)")
	chaosSeed := fs.Int64("chaos-seed", 0, "override the plan's seed (0 keeps the plan's own)")
	runs := fs.Int("runs", 1, "run the scenario N times in parallel and verify identical results")
	checkRun := fs.Bool("check", false, "verify the run's trace against the coherence invariants; exit 1 on violation")
	if fs.Parse(args) != nil {
		return 2
	}

	var pol core.InvalPolicy
	switch *policy {
	case "retry":
		pol = core.PolicyRetry
	case "honor-close":
		pol = core.PolicyHonorClose
	case "queue":
		pol = core.PolicyQueue
	default:
		return fail("unknown policy %q", *policy)
	}
	if *runs < 1 {
		return fail("-runs must be at least 1")
	}
	if *replicas < 0 {
		return fail("-replicas must be non-negative")
	}

	if *sites > mmu.MaxSites {
		return fail("-sites %d: %v", *sites, mmu.ErrTooManySites)
	}

	n := 2
	var svcSkew load.Skew
	switch *workload {
	case "pingpong", "counters":
	case "readers":
		n = *sites
		if n < 2 {
			return fail("readers needs at least 2 sites")
		}
	case "service":
		n = *sites
		if n < 1 {
			return fail("service needs at least 1 site")
		}
		var err error
		svcSkew, err = load.ParseSkew(*skew)
		if err != nil {
			return fail("%v", err)
		}
		if *rate <= 0 {
			return fail("-rate must be positive")
		}
	case "affinity":
		n = *sites
		if n < 2 {
			return fail("affinity needs at least 2 sites")
		}
		if *rate <= 0 {
			return fail("-rate must be positive")
		}
	default:
		return fail("unknown workload %q", *workload)
	}
	if *replicas >= n {
		return fail("-replicas %d must be below the cluster size %d", *replicas, n)
	}

	var basePlan *chaos.Plan
	if *chaosSpec != "" {
		var err error
		basePlan, err = chaos.Parse(*chaosSpec)
		if err != nil {
			return fail("bad -chaos plan: %v", err)
		}
		if *chaosSeed != 0 {
			basePlan.Seed = *chaosSeed
		}
	}

	// runOnce builds a fresh virtual cluster and drives the scenario to
	// completion; every run is self-contained (own cluster, own obs
	// sink), so N of them can execute concurrently and must agree bit
	// for bit.
	wantTrace := *tracePath != "" || *checkRun
	runOnce := func() (string, *ipc.Cluster, *app.Stats) {
		opts := core.Options{Policy: pol, InvalFanout: *fanout}
		var o *obs.Obs
		if wantTrace || *metrics {
			o = obs.New()
			if !wantTrace {
				o.Tracer = nil // metrics only; skip event buffering
			}
			opts.Obs = o
		}
		var plan *chaos.Plan
		if basePlan != nil {
			p := *basePlan
			plan = &p
			// A lossy fabric needs the ARQ layer; zero value = defaults.
			opts.Reliability = &core.Reliability{}
		}
		if *failover || *migrate || *replicas > 0 {
			// Failover rides on the ARQ give-up verdict, so it implies
			// the reliability layer even on a clean fabric; migration
			// and replication ride on the failover epoch fence in turn.
			if opts.Reliability == nil {
				opts.Reliability = &core.Reliability{}
			}
			opts.Failover = &core.Failover{}
		}
		if *replicas > 0 {
			opts.Replication = &core.Replication{Replicas: *replicas}
		}
		if *autodelta {
			opts.AutoDelta = &core.AutoDelta{}
		}
		if *migrate {
			opts.Placement = &core.Placement{}
			if *workload == "affinity" {
				// Fault-driven demand is far sparser than op-driven load;
				// use the thresholds the E21 sweep runs with.
				opts.Placement = exp.MigrationConfig{}.Policy()
			}
		}
		c := ipc.NewCluster(n, ipc.Config{Delta: *delta, Engine: opts, Chaos: plan})
		var headline string
		var svc *app.Stats
		switch *workload {
		case "pingpong":
			cycles := exp.RunPingPongForDebug(c, 0, 1, *yield, *dur)
			headline = fmt.Sprintf("%.2f cycles/s (yield=%v)", float64(cycles)/dur.Seconds(), *yield)
		case "counters":
			insn := exp.RunCountersForDebug(c, *dur)
			headline = fmt.Sprintf("%.0f read-write insn/s", insn)
		case "readers":
			headline = runReaders(c, *dur)
		case "service":
			cfg := exp.ServiceConfig{Sites: n, Duration: *dur, Skew: svcSkew}.WithDefaults()
			svc = app.NewStats(cfg.Shards)
			g := exp.RunService(c, cfg, *rate, svc, o)
			headline = fmt.Sprintf("%.1f req/s goodput at %.0f offered; shed %d, p50 %v, p99 %v, liveness=%v",
				g.Goodput, *rate, g.Shed, time.Duration(g.Latency.P50), time.Duration(g.Latency.P99), g.LivenessOK)
		case "affinity":
			cfg := exp.MigrationConfig{Sites: n, Duration: *dur, Rate: *rate}.WithDefaults()
			svc = app.NewStats(cfg.Shards)
			g := exp.RunAffinity(c, cfg, false, svc, o)
			migs := 0
			for i := 0; i < c.Sites(); i++ {
				migs += c.Site(i).Eng.Stats().Migrations
			}
			headline = fmt.Sprintf("%.1f req/s goodput at %.0f offered; shed %d, p50 %v, p99 %v, %d voluntary migrations",
				g.Goodput, *rate, g.Shed, time.Duration(g.Latency.P50), time.Duration(g.Latency.P99), migs)
		}
		return headline, c, svc
	}

	var headline string
	var c *ipc.Cluster
	var svc *app.Stats
	if *runs == 1 {
		headline, c, svc = runOnce()
	} else {
		headlines := make([]string, *runs)
		digests := make([]string, *runs)
		clusters := make([]*ipc.Cluster, *runs)
		svcs := make([]*app.Stats, *runs)
		start := time.Now()
		var wg sync.WaitGroup
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		for i := 0; i < *runs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				h, cl, st := runOnce()
				headlines[i] = h
				digests[i] = h + " | " + digest(cl) + svcDigest(st)
				clusters[i] = cl
				svcs[i] = st
			}(i)
		}
		wg.Wait()
		wall := time.Since(start)
		identical := true
		for i := 1; i < *runs; i++ {
			if digests[i] != digests[0] {
				identical = false
				fmt.Fprintf(stderr, "miragesim: run %d diverged:\n  run 0: %s\n  run %d: %s\n", i, digests[0], i, digests[i])
			}
		}
		fmt.Fprintf(stdout, "%d runs in %.2fs wall (%d-way), identical results: %v\n", *runs, wall.Seconds(), runtime.GOMAXPROCS(0), identical)
		if !identical {
			return 1
		}
		headline = headlines[0]
		// The runs are interchangeable; show run 0's detailed stats.
		c = clusters[0]
		svc = svcs[0]
	}

	fmt.Fprintf(stdout, "workload=%s sites=%d Δ=%v dur=%v policy=%s\n", *workload, n, *delta, *dur, *policy)
	fmt.Fprintf(stdout, "result: %s\n\n", headline)

	t := exp.NewTable("site", "rd-faults", "wr-faults", "pages tx/rx", "upgrades", "downgrades", "busies", "retries", "Δ-wait",
		"cpu user", "cpu kernel", "dispatches")
	for i := 0; i < c.Sites(); i++ {
		es := c.Site(i).Eng.Stats()
		cs := c.Site(i).CPU.Stats()
		t.Row(i, es.ReadFaults, es.WriteFaults,
			fmt.Sprintf("%d/%d", es.PagesSent, es.PagesReceived),
			es.Upgrades, es.Downgrades, es.BusyReplies, es.Retries,
			es.WindowWait.Round(time.Millisecond),
			cs.UserBusy.Round(time.Millisecond), cs.KernelBusy.Round(time.Millisecond), cs.Dispatches)
	}
	t.WriteTo(stdout)
	ns := c.Net.Stats()
	fmt.Fprintf(stdout, "\nnetwork: %d msgs (%d large, %d short), %d bytes, %d loopback\n",
		ns.Delivered, ns.LargeMsgs, ns.ShortMsgs, ns.Bytes, ns.Loopback)

	if svc != nil {
		fmt.Fprintln(stdout, "\nstore (per shard):")
		if _, err := svc.WriteTo(stdout); err != nil {
			return fail("%v", err)
		}
	}

	if c.Chaos != nil {
		executed := c.Chaos.Plan()
		fmt.Fprintf(stdout, "\nchaos plan: %s\n%v\n", executed.String(), c.Chaos.Stats())
		rt := exp.NewTable("site", "retransmits", "dup-drops", "gave-up", "degraded", "stale", "denied")
		for i := 0; i < c.Sites(); i++ {
			es := c.Site(i).Eng.Stats()
			rt.Row(i, es.Retransmits, es.DupDrops, es.GaveUp, es.Degraded, es.Stale, es.Denied)
		}
		rt.WriteTo(stdout)
	}

	if *failover || *migrate || *replicas > 0 {
		ft := exp.NewTable("site", "failovers", "recoveries", "stale-epoch fenced", "migrations", "refused")
		for i := 0; i < c.Sites(); i++ {
			es := c.Site(i).Eng.Stats()
			ft.Row(i, es.Failovers, es.Recoveries, es.StaleEpoch, es.Migrations, es.MigrationsRefused)
		}
		fmt.Fprintln(stdout)
		ft.WriteTo(stdout)
	}

	if *replicas > 0 {
		rt := exp.NewTable("site", "appends", "commits", "degraded", "elections")
		for i := 0; i < c.Sites(); i++ {
			es := c.Site(i).Eng.Stats()
			rt.Row(i, es.Appends, es.ReplCommits, es.ReplDegraded, es.Elections)
		}
		fmt.Fprintln(stdout)
		rt.WriteTo(stdout)
	}

	if *autodelta {
		at := exp.NewTable("site", "Δ-grows", "Δ-shrinks")
		for i := 0; i < c.Sites(); i++ {
			es := c.Site(i).Eng.Stats()
			at.Row(i, es.DeltaGrows, es.DeltaShrinks)
		}
		fmt.Fprintln(stdout)
		at.WriteTo(stdout)
	}

	if h := c.FaultLatency; h.Count() > 0 {
		fmt.Fprintln(stdout)
		if _, err := h.Snapshot(obs.HFaultLatency.String()).WriteTo(stdout); err != nil {
			return fail("%v", err)
		}
	}

	if *metrics && c.Obs != nil {
		fmt.Fprintln(stdout, "\nmetrics registry:")
		if _, err := c.Obs.Metrics.WriteTo(stdout); err != nil {
			return fail("%v", err)
		}
	}

	if *tracePath != "" {
		buf := c.Obs.Buffer()
		f, err := os.Create(*tracePath)
		if err != nil {
			return fail("%v", err)
		}
		if err := c.WriteTrace(f); err != nil {
			f.Close()
			return fail("%v", err)
		}
		if err := f.Close(); err != nil {
			return fail("%v", err)
		}
		note := ""
		if d := buf.Dropped(); d > 0 {
			note = fmt.Sprintf(" (%d dropped at the buffer cap)", d)
		}
		fmt.Fprintf(stdout, "protocol trace: %d events -> %s%s (analyze with miragetrace summarize)\n", buf.Len(), *tracePath, note)
	}

	if *checkRun {
		viols, err := c.VerifyTrace()
		if err != nil {
			return fail("%v (shorten -dur)", err)
		}
		if n := c.Obs.Buffer().Len(); len(viols) == 0 {
			fmt.Fprintf(stdout, "\ncoherence check: %d events, clean\n", n)
		} else {
			fmt.Fprintf(stdout, "\ncoherence check: %d events, %d violation(s):\n", n, len(viols))
			for _, v := range viols {
				fmt.Fprintf(stdout, "  %v\n", v)
			}
			return 1
		}
	}
	return 0
}

// svcDigest folds the service workload's per-shard store counters into
// the -runs determinism comparison; other workloads contribute nothing.
func svcDigest(st *app.Stats) string {
	if st == nil {
		return ""
	}
	return " app{" + st.Digest() + "}"
}

// digest summarizes a finished cluster's observable state for the
// -runs determinism comparison: per-site protocol counters, the fabric
// totals and, when the run was traced, the trace's sha256 — so any
// divergence in event order, timing or content fails the check.
func digest(c *ipc.Cluster) string {
	s := ""
	for i := 0; i < c.Sites(); i++ {
		es := c.Site(i).Eng.Stats()
		s += fmt.Sprintf("site%d{rf=%d wf=%d tx=%d rx=%d up=%d busy=%d retry=%d} ",
			i, es.ReadFaults, es.WriteFaults, es.PagesSent, es.PagesReceived,
			es.Upgrades, es.BusyReplies, es.Retries)
	}
	ns := c.Net.Stats()
	s += fmt.Sprintf("net{msgs=%d bytes=%d}", ns.Delivered, ns.Bytes)
	if c.Chaos != nil {
		s += " chaos{" + c.Chaos.Stats().String() + "}"
	}
	if d := c.TraceDigest(); d != "" {
		s += " trace{sha256=" + d + "}"
	}
	return s
}

// runReaders spawns one writer colocated with the library and N-1
// remote readers polling the same page.
func runReaders(c *ipc.Cluster, dur time.Duration) string {
	writes, reads := 0, 0
	exp.SpawnSharedWriter(c, 0, dur, &writes)
	for s := 1; s < c.Sites(); s++ {
		exp.SpawnSharedReader(c, s, dur, &reads)
	}
	c.Run()
	return fmt.Sprintf("%.1f writes/s at the writer, %.1f reads/s across %d readers",
		float64(writes)/dur.Seconds(), float64(reads)/dur.Seconds(), c.Sites()-1)
}
