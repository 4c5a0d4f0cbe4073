// Command bench is the live-mode benchmark of the Mirage DSM: six
// workloads over the public API, end-to-end metrics with observability
// off, and a traced run that prices each layer (see README.md).
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (the BENCHMARK.json contract)
//	bench -seed N [-workload W] [-repeat R] [-out f.json] [-trace-out f.jsonl]   the suite, every metric by name
//	bench compare a.json b.json                           regression verdict between two records
//	bench budget record.json                              where a fault's time goes, as a markdown table
//	bench -manifest                                       print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "budget":
			os.Exit(budgetMain(os.Args[2:]))
		}
	}
	var (
		workload = flag.String("workload", "", "workload to run (default: all six)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed window")
		trace    = flag.String("trace", "", "0: one untraced run, 1: one traced run; prints one JSON line")
		repeat   = flag.Int("repeat", 1, "suite: runs per workload; medians and quartiles are recorded")
		out      = flag.String("out", "", "suite: write the record to this file")
		traceOut = flag.String("trace-out", "", "suite: append spans and counter deltas as JSON lines")
		commit   = flag.String("commit", "unknown", "suite: commit id to stamp into the record")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *manifest {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(buildManifest()); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds <= 0 || *repeat < 1 {
		fatal(fmt.Errorf("-seconds must be positive and -repeat at least 1"))
	}
	// The load model is two client goroutines on a two-core host; more
	// processors would change what the workloads contend for.
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)

	var selected []*workloadDef
	if *workload == "" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := findWorkload(*workload); w != nil {
		selected = append(selected, w)
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}

	switch *trace {
	case "0", "1":
		if len(selected) != 1 {
			fatal(fmt.Errorf("-trace needs one -workload"))
		}
		os.Exit(driverRun(selected[0], *seed, *seconds, *trace == "1"))
	case "":
		os.Exit(suite(selected, *seed, *seconds, *repeat, *out, *traceOut, *commit, procs))
	default:
		fatal(fmt.Errorf("-trace takes 0 or 1"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOutput is the one JSON line a contract run prints last.
type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Shares of a traced run's --seconds: the workload-independent probes,
// and each of the workload's untraced and traced passes.
const (
	probeShare  = 0.5
	tracedShare = 0.2
)

func probeBudget(seconds float64) time.Duration {
	return time.Duration(probeShare * seconds * float64(time.Second))
}

// driverRun is one run under the BENCHMARK.json contract: untraced it
// prints exactly the end-to-end metrics, traced exactly the per-layer
// ones. It returns the exit code: 1 when a correctness check failed.
func driverRun(w *workloadDef, seed int64, seconds float64, traced bool) int {
	res := runOutput{Metrics: map[string]metricValue{}}
	var problems []error
	if !traced {
		r, err := runE2E(w, seed, seconds)
		if err != nil {
			fatal(err)
		}
		res.Attempted, res.Failed = r.phase.ops+r.phase.failed, r.phase.failed
		problems = append(problems, r.phase.bad, r.checkErr)
		for _, d := range e2eMetrics {
			res.Metrics[d.Name] = metricValue{r.metrics[d.Name], d.Unit}
		}
	} else {
		layers, err := runProbes(probeBudget(seconds))
		if err != nil {
			fatal(err)
		}
		t, err := runTraced(w, seed, tracedShare*seconds)
		if err != nil {
			fatal(err)
		}
		res.Attempted, res.Failed = t.ops+t.failed, t.failed
		problems = append(problems, t.bad, checkedPass(w, seed))
		if t.metrics["obs.dropped_events"] > 0 {
			problems = append(problems, fmt.Errorf("%s: trace buffer dropped %v events", w.name, t.metrics["obs.dropped_events"]))
		}
		for k, v := range t.metrics {
			layers[k] = v
		}
		for _, d := range perLayerMetrics {
			res.Metrics[d.Name] = metricValue{layers[d.Name], d.Unit}
		}
	}
	res.Correct = true
	for _, err := range problems {
		if err != nil {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// stat is one metric over a suite's repeats.
type stat struct {
	Value float64   `json:"value"` // median of Runs
	Q1    float64   `json:"q1"`
	Q3    float64   `json:"q3"`
	Unit  string    `json:"unit"`
	Runs  []float64 `json:"runs"`
}

func newStat(runs []float64, unit string) stat {
	q1, q3 := quartiles(runs)
	return stat{Value: medianF(runs), Q1: q1, Q3: q3, Unit: unit, Runs: runs}
}

// record is the stable schema of a committed benchmark record.
type record struct {
	Host      map[string]float64         `json:"host"` // host.* calibration probes
	Go        string                     `json:"go"`
	Procs     int                        `json:"gomaxprocs"`
	Commit    string                     `json:"commit"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Repeat    int                        `json:"repeat"`
	Layers    map[string]float64         `json:"layers"` // workload-independent probes
	Workloads map[string]*workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	E2E       map[string]stat    `json:"e2e"`
	Layers    map[string]float64 `json:"layers"`  // the workload's own traced figures
	Counts    map[string]float64 `json:"counts"`  // exact protocol counts per cycle (counted workloads)
	Samples   map[string]int     `json:"samples"` // latency samples behind the last run's percentiles
}

// extraE2E are end-to-end figures the suite records beside the bounded
// ones: they exist on some workloads only, or may legitimately be zero.
var extraE2E = []metricDef{
	{"mean_ops_per_s", "1/s", higher, 0},
	{"read_ns_p99", "ns", lower, 0},
	{"write_ns_p99", "ns", lower, 0},
	{"upgrade_ns_p50", "ns", lower, 0},
	{"cas_ns_p50", "ns", lower, 0},
	{"min_share", "ratio", higher, 0},
	{"allocs_per_op", "1/op", lower, 0},
	{"fail_ratio", "ratio", lower, 0},
}

// suite runs every selected workload untraced (repeat times) and
// traced (once), prints every metric by name with its unit, and
// optionally writes the record. It returns 1 if any check failed.
func suite(selected []*workloadDef, seed int64, seconds float64, repeat int, out, traceOut, commit string, procs int) int {
	rec := record{Go: runtime.Version(), Procs: procs, Commit: commit, Seed: seed, Seconds: seconds, Repeat: repeat,
		Host: map[string]float64{}, Workloads: map[string]*workloadRecord{}}
	layers, err := runProbes(probeBudget(seconds))
	if err != nil {
		fatal(err)
	}
	rec.Layers = layers
	for k, v := range layers {
		if len(k) > 5 && k[:5] == "host." {
			rec.Host[k] = v
		}
	}
	printSorted("probes", layers, func(name string) string { return unitOf(perLayerMetrics, name) })

	recorded := append(slices.Clone(e2eMetrics), extraE2E...)
	failed := false
	for _, w := range selected {
		wr := &workloadRecord{Correct: true, E2E: map[string]stat{}, Counts: map[string]float64{}}
		rec.Workloads[w.name] = wr
		runs := map[string][]float64{}
		for r := 0; r < repeat; r++ {
			e, err := runE2E(w, seed, seconds)
			if err != nil {
				fatal(err)
			}
			wr.Attempted += e.phase.ops + e.phase.failed
			wr.Failed += e.phase.failed
			wr.Samples = e.samples
			for _, perr := range []error{e.phase.bad, e.checkErr} {
				if perr != nil {
					wr.Correct = false
					fmt.Fprintln(os.Stderr, "bench: FAILED:", perr)
				}
			}
			m := e.metrics
			m["fail_ratio"] = float64(e.phase.failed) / float64(max(e.phase.ops+e.phase.failed, 1))
			switch {
			case w.name == "store-tcp":
				m["cas_ns_p50"] = m["third_ns_p50"]
			case w.single && w.name != "fanout":
				m["upgrade_ns_p50"] = m["third_ns_p50"]
			}
			for _, d := range recorded {
				if v, ok := m[d.Name]; ok {
					runs[d.Name] = append(runs[d.Name], v)
				}
			}
		}
		for _, d := range recorded {
			if vs, ok := runs[d.Name]; ok {
				wr.E2E[d.Name] = newStat(vs, d.Unit)
			}
		}

		t, err := runTraced(w, seed, tracedShare*seconds)
		if err != nil {
			fatal(err)
		}
		wr.Layers = t.metrics
		if t.bad != nil || t.metrics["obs.dropped_events"] > 0 {
			wr.Correct = false
			fmt.Fprintf(os.Stderr, "bench: FAILED: %s traced pass: %v, %v events dropped\n", w.name, t.bad, t.metrics["obs.dropped_events"])
		}
		if t.cycles > 0 {
			for name, v := range t.counters {
				wr.Counts[name+"_per_cycle"] = float64(v) / float64(t.cycles)
			}
		}
		if traceOut != "" {
			if err := writeTrace(traceOut, w.name, t.spans, t.analysis, t.counters); err != nil {
				fatal(err)
			}
		}
		failed = failed || !wr.Correct

		fmt.Printf("\n== %s  (%s)\n", w.name, w.why)
		fmt.Printf("   correct=%v attempted=%d failed=%d\n", wr.Correct, wr.Attempted, wr.Failed)
		names := make([]string, 0, len(wr.E2E))
		for k := range wr.E2E {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			s := wr.E2E[k]
			fmt.Printf("   %-34s %14.4f %-6s", k, s.Value, s.Unit)
			if repeat > 1 {
				fmt.Printf("  q1=%.4f q3=%.4f", s.Q1, s.Q3)
			}
			if n, ok := wr.Samples[sampleKind(k)]; ok {
				fmt.Printf("  n=%d", n)
			}
			fmt.Println()
		}
		printSorted("", wr.Layers, func(name string) string { return unitOf(perLayerMetrics, name) })
		printSorted("", wr.Counts, func(string) string { return "count" })
	}

	if out != "" {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// sampleKind maps a latency metric to the op kind whose sample count
// is printed beside it.
func sampleKind(metric string) string {
	switch metric {
	case "read_ns_p50", "read_ns_p99":
		return "read"
	case "write_ns_p50", "write_ns_p99":
		return "write"
	case "upgrade_ns_p50", "cas_ns_p50":
		return "third"
	}
	return ""
}

func printSorted(title string, m map[string]float64, unit func(string) string) {
	if title != "" {
		fmt.Printf("== %s\n", title)
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("   %-34s %14.4f %s\n", k, m[k], unit(k))
	}
}
