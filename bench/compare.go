package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// worsening is by what share of base the metric got worse going from
// base to cur: positive is worse, whichever direction is better.
func worsening(d metricDef, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	if d.Better == higher {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// judge applies a metric's bound to a base and a current stat. A row
// regresses when the current median is worse than the base median by
// more than the bound. When either side's own run-to-run spread
// (quartile distance over median) is wider than the bound the medians
// cannot be told apart: the row is unresolved, unless every current
// run reads better than every base run.
func judge(d metricDef, base, cur stat) (verdict string, worse float64) {
	worse = worsening(d, base.Value, cur.Value)
	spread := func(s stat) float64 {
		if s.Value == 0 {
			return 0
		}
		return (s.Q3 - s.Q1) / s.Value
	}
	if spread(base) > d.Bound || spread(cur) > d.Bound {
		if allBetter(d, base.Runs, cur.Runs) {
			return verdictOK, worse
		}
		return verdictUnresolved, worse
	}
	if worse > d.Bound {
		return verdictRegressed, worse
	}
	return verdictOK, worse
}

// allBetter reports whether every current run beats every base run.
func allBetter(d metricDef, base, cur []float64) bool {
	if len(base) == 0 || len(cur) == 0 {
		return false
	}
	for _, c := range cur {
		for _, b := range base {
			if worsening(d, b, c) >= 0 {
				return false
			}
		}
	}
	return true
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareMain prints one row per (workload, end-to-end metric) of two
// records and returns 1 if any row regressed, 2 on a usage error.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare base.json current.json")
		return 2
	}
	base, err := readRecord(args[0])
	if err == nil {
		var cur *record
		if cur, err = readRecord(args[1]); err == nil {
			return compareRecords(base, cur)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

func compareRecords(base, cur *record) int {
	code := 0
	fmt.Printf("%-14s %-14s %14s %14s %8s %6s  %s\n", "workload", "metric", "base", "current", "worse", "bound", "verdict")
	for _, w := range workloads {
		bw, cw := base.Workloads[w.name], cur.Workloads[w.name]
		if bw == nil || cw == nil {
			continue
		}
		if !cw.Correct {
			fmt.Printf("%-14s correctness check failed in the current record\n", w.name)
			code = 1
		}
		for _, d := range e2eMetrics {
			bs, ok1 := bw.E2E[d.Name]
			cs, ok2 := cw.E2E[d.Name]
			if !ok1 || !ok2 {
				continue
			}
			v, worse := judge(d, bs, cs)
			fmt.Printf("%-14s %-14s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
				w.name, d.Name, bs.Value, cs.Value, 100*worse, 100*d.Bound, v)
			if v == verdictRegressed {
				code = 1
			}
		}
		// A failed op misses every latency bound, so failures are judged
		// on their own: more than one in a thousand above the base.
		if cf, bf := failRatio(cw), failRatio(bw); cf > bf+0.001 {
			fmt.Printf("%-14s %-14s %14.6f %14.6f %8s %6s  %s\n", w.name, "fail_ratio", bf, cf, "", "", verdictRegressed)
			code = 1
		}
	}
	return code
}

func failRatio(w *workloadRecord) float64 {
	return float64(w.Failed) / float64(max(w.Attempted, 1))
}
