package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"mirage/internal/load"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 100}, {90, 90}, {91, 100}, {1, 10}, {0, 10}, {100, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(n=4)
// gives, since the acceptance rule for the benchmark is stated in them.
func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := medianF([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSamplesKeepEveryValue(t *testing.T) {
	var a, b samples
	for i := 0; i < chunkSamples+10; i++ {
		a.add(int64(2 * i))
		b.add(int64(2*i + 1))
	}
	all := sortedOf([]samples{a, b})
	if len(all) != 2*(chunkSamples+10) {
		t.Fatalf("%d samples, want %d", len(all), 2*(chunkSamples+10))
	}
	for i, v := range all {
		if v != int64(i) {
			t.Fatalf("sample %d = %d", i, v)
		}
	}
}

// Throughput is the rate of the 99th-percentile slice and latency the
// first quartile of the slice medians: slices the host took away, up to
// three quarters of them, move neither.
func TestDisturbedSlicesMoveNeitherFigure(t *testing.T) {
	r := &phaseResult{sliceOps: make([]int64, 400), elapsed: 400 * fineSlice}
	for i := range r.sliceOps {
		r.sliceOps[i] = 100
		r.ops += 100
	}
	r.lat[kRead] = make([][]samples, 5)
	for sl := range r.lat[kRead] {
		var s samples
		for i := 0; i < 100; i++ {
			s.add(1000)
		}
		r.lat[kRead][sl] = []samples{s}
	}
	quiet := r.opsPerSec()
	for i := 40; i < 360; i++ { // four fifths of the window lost
		r.ops -= r.sliceOps[i]
		r.sliceOps[i] = 0
	}
	for sl := 1; sl < 4; sl++ { // and most ops of three latency slices hit
		for i := 0; i < 150; i++ {
			r.lat[kRead][sl][0].add(9_000_000)
		}
	}
	if got := r.opsPerSec(); got != quiet || quiet != 100/fineSlice.Seconds() {
		t.Errorf("throughput %v on the disturbed window, %v on the quiet one", got, quiet)
	}
	if mean := r.meanOpsPerSec(); mean >= quiet/4 {
		t.Errorf("mean %v should have fallen with the lost slices", mean)
	}
	if p50, n := r.latency(kRead); p50 != 1000 || n != 4*100+3*150 {
		t.Errorf("median %v over %d samples, want 1000 over 850 (the overflow slot left out)", p50, n)
	}
}

func TestJudgeAppliesBounds(t *testing.T) {
	lat := metricDef{"read_ns_p50", "ns", lower, 0.25}
	thr := metricDef{"ops_per_s", "1/s", higher, 0.25}
	tight := func(v float64) stat { return newStat([]float64{v * 0.99, v, v * 1.01}, "") }
	wide := func(v float64) stat { return newStat([]float64{v * 0.6, v, v * 1.4}, "") }
	for _, c := range []struct {
		name      string
		d         metricDef
		base, cur stat
		want      string
	}{
		{"latency within bound", lat, tight(100), tight(120), verdictOK},
		{"latency beyond bound", lat, tight(100), tight(130), verdictRegressed},
		{"latency improved", lat, tight(100), tight(50), verdictOK},
		{"throughput within bound", thr, tight(100), tight(80), verdictOK},
		{"throughput beyond bound", thr, tight(100), tight(70), verdictRegressed},
		{"spread wider than bound", lat, wide(100), tight(130), verdictUnresolved},
		{"wide but every run better", lat, wide(100), tight(40), verdictOK},
	} {
		if got, _ := judge(c.d, c.base, c.cur); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The committed BENCHMARK.json is what `-manifest` prints, and obeys
// the contract's limits on names, units and counts.
func TestManifestMatchesCommittedFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	if err := json.Unmarshal(b, &onDisk); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric or workload name %q is malformed or used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", name, unit)
		}
	}
	setup := false
	for _, d := range e2eMetrics {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("end-to-end metrics lack setup_s in seconds, lower is better")
	}
	for _, d := range perLayerMetrics {
		check(d.Name, d.Unit)
		if d.Unit == "" {
			t.Errorf("%s: no unit", d.Name)
		}
	}
	for _, w := range workloads {
		check(w.name, "")
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	if n := len(perLayerMetrics); n > 128 {
		t.Errorf("%d per-layer metrics, limit 128", n)
	}
	// A run is its window, a warm-up of an eighth of it, and about six
	// seconds of build check, set-up repeats and checked pass.
	if runs, each := 4+22*len(workloads), runSeconds+runSeconds/8+6; runs*each > 3420 {
		t.Errorf("%d runs of about %d s do not fit the 3420 s cap", runs, each)
	}
}

// Every workload, run briefly, yields every end-to-end metric, non-zero,
// passes its value checks and its checked pass; its traced run together
// with the probes yields every per-layer metric.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	layers, err := runProbes(400 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		r, err := runE2E(w, 1, 0.2)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.phase.bad != nil || r.checkErr != nil || r.phase.failed != 0 {
			t.Errorf("%s: value check %v, checked pass %v, %d failed ops", w.name, r.phase.bad, r.checkErr, r.phase.failed)
		}
		for _, d := range e2eMetrics {
			if v, ok := r.metrics[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", w.name, d.Name, v)
			}
		}
		tr, err := runTraced(w, 1, 0.2)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if tr.bad != nil || tr.metrics["obs.dropped_events"] != 0 {
			t.Errorf("%s traced: %v, %v events dropped", w.name, tr.bad, tr.metrics["obs.dropped_events"])
		}
		known := map[string]bool{}
		for _, d := range perLayerMetrics {
			known[d.Name] = true
			_, probed := layers[d.Name]
			_, traced := tr.metrics[d.Name]
			// A store figure exists on store-tcp only and frames_per_flush
			// where something was flushed; they are reported as 0 elsewhere.
			if !probed && !traced && d.Name[:4] != "app." && d.Name != "transport.frames_per_flush" {
				t.Errorf("%s: per-layer metric %s not produced", w.name, d.Name)
			}
		}
		for name := range tr.metrics {
			if !known[name] {
				t.Errorf("%s: traced run produced %s, which BENCHMARK.json does not list", w.name, name)
			}
		}
		switch w.name {
		case "hit":
			for _, name := range []string{"core.faults_per_op", "core.pages_per_op", "transport.msgs_per_op"} {
				if tr.metrics[name] != 0 {
					t.Errorf("hit: %s = %v, want 0: a resident hit must stay off the protocol", name, tr.metrics[name])
				}
			}
		case "fault-inproc", "fanout", "contend-delta":
			if v := tr.metrics["transport.wire_bytes_per_op"]; v != 0 {
				t.Errorf("%s: %v socket bytes per op on an in-process mesh", w.name, v)
			}
		case "fault-tcp", "store-tcp":
			if v := tr.metrics["transport.wire_bytes_per_op"]; v <= 0 {
				t.Errorf("%s: no socket bytes on a TCP mesh", w.name)
			}
		}
	}
}

// A store that serves one stale slot must fail the executor's value
// check: the slot keeps returning the record it held at its first read
// while the store has since been given the key's current value.
func TestStaleSlotFailsValueCheck(t *testing.T) {
	st, fakes, err := newFakeStore()
	if err != nil {
		t.Fatal(err)
	}
	cfg := storeCfg.WithDefaults()
	// Odd keys are not preloaded, so each one's first record is the old
	// value put here; the executor then rewrites it and reads it back.
	rewrite := func(k uint64, stale bool) error {
		key, val := load.KeyBytes(k), load.ValBytes(k, storeValBytes)
		if err := st.Put(key, load.ValBytes(k+1, storeValBytes)); err != nil {
			t.Fatal(err)
		}
		f := fakes[cfg.ShardOf(key)]
		if stale {
			for off := cfg.PageSize; off < len(f.mem); off += cfg.SlotSize {
				if string(f.mem[off+8:off+8+len(key)]) == string(key) {
					f.staleOff = off
				}
			}
			if f.staleOff == 0 {
				t.Fatal("key's slot not found")
			}
		}
		if _, err := execStoreOp(st, load.OpPut, key, val); err != nil {
			t.Fatal(err)
		}
		_, err := execStoreOp(st, load.OpGet, key, val)
		return err
	}
	if err := rewrite(7, false); err != nil {
		t.Fatalf("honest store failed the value check: %v", err)
	}
	if err := rewrite(9, true); err == nil {
		t.Fatal("a Get served from a stale slot passed the value check")
	}
}

// The exact counts are properties of the code, not of a run: two
// invocations agree.
func TestExactCountsRepeat(t *testing.T) {
	var runs [2]map[string]float64
	for i := range runs {
		runs[i] = map[string]float64{}
		if err := coreProbes(5*time.Millisecond, runs[i]); err != nil {
			t.Fatal(err)
		}
		if err := appProbes(5*time.Millisecond, runs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"core.msgs_per_upgrade", "core.msgs_per_write_fault", "core.msgs_per_read_fault",
		"app.seg_calls_per_get", "app.seg_calls_per_put"} {
		if runs[0][name] <= 0 || runs[0][name] != runs[1][name] {
			t.Errorf("%s = %v then %v", name, runs[0][name], runs[1][name])
		}
	}
}
