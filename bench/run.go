package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"mirage"
	"mirage/internal/obs"
)

// A phase is cut into time slices, finely for throughput and coarsely
// for latency, because of where this runs.
//
// The CI-class host is a small VM on an oversubscribed machine. For
// minutes at a time both vCPUs are descheduled for 5-40 ms at a
// stretch, half to nine tenths of all wall time, and between such
// spells the cost of a cross-thread wake-up still drifts by tens of
// per cent; the program itself moves between scheduling regimes that
// differ by a third and last seconds. Figures over the whole window
// then say how the host was, not how the program is: identical runs
// read 2-13× apart in ops completed and 20 % apart in median latency.
// What is reported instead is what moves least:
//
//   - latency: the median of each latSlice of the window, and of those
//     the first quartile. A slice's median stays put until half its ops
//     are hit by a gap, and the low quartile is the regime the program
//     is fast in for at least a quarter of the window. The lowest slice
//     median is an extreme: on a quiet host ten runs of it spread
//     5-14 % where the quartile spreads 4-7 %. A slice holds thousands
//     of ops, so a low median is not a lucky mix of cheap ops.
//   - throughput: the rate of the window's 99th-percentile fineSlice,
//     the rate the closed loop reaches when it has the machine for a
//     whole slice, which it does for one slice in a hundred on the
//     worst host seen. A fineSlice holds a hundred ops of the slowest
//     workload and fits between two of the host's gaps. It is a peak,
//     not a mean — the program's own speed varies from slice to slice
//     too, by 2× on store-tcp — and is to be compared only with
//     itself. The plain mean is reported beside it, without a bound.
//
// Tail percentiles cannot be kept from the host in this way: a filter
// that drops disturbed slices also drops the program's own slow ops,
// to a degree that depends on the host (tried and removed). The p99s
// are taken over the whole window and carry no bound.
const (
	fineSlice = 5 * time.Millisecond
	latSlice  = 500 * time.Millisecond
)

// limit bounds one phase of a run: a wall-clock duration, a cycle count
// split evenly over the drivers, or both — then whichever is reached
// first ends the phase, so a counted pass cannot run away on a host
// that has slowed tenfold. Zero means unbounded.
type limit struct {
	dur    time.Duration
	cycles int
}

// phaseResult is what one measured phase produced.
type phaseResult struct {
	elapsed   time.Duration
	lat       [nKinds][][]samples // [kind][latSlice] → one recorder per driver
	sliceOps  []int64             // successful ops per full fineSlice, all drivers
	opsBy     []int64             // successful ops per driver
	ops       int64
	cycles    int // cycles completed, all drivers
	failed    int64
	bad       error
	spans     [][]span // per driver, when tracing
	mallocs   uint64   // heap objects allocated during the phase
	stats     protoCounts
	obsBefore obs.Snapshot
	obsAfter  obs.Snapshot
}

// maxSlices caps the per-slice op counters of a phase with no time
// limit; ops past it share the last slot.
const maxSlices = 60 * int(time.Second/fineSlice)

// runPhase drives every driver of inst in a closed loop until lim is
// reached. Drivers are fresh per phase; workload state lives in inst,
// so a warm-up phase followed by a timed phase continues one run.
func runPhase(inst instance, lim limit, trace bool, base time.Time) *phaseResult {
	n := inst.drivers()
	res := &phaseResult{opsBy: make([]int64, n)}
	slices := maxSlices
	if lim.dur > 0 {
		slices = int(lim.dur / fineSlice)
	}
	c := inst.cluster()
	if o := c.Obs(); o != nil && o.Metrics != nil {
		res.obsBefore = o.Metrics.Snapshot()
	}
	before := readCounts(c)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs

	ds := make([]*driver, n)
	for i := range ds {
		ds[i] = newDriver(i, slices, trace, base)
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(lim.dur)
	for _, d := range ds {
		wg.Add(1)
		go func(d *driver) {
			defer wg.Done()
			d.start = start
			d.last = time.Now()
			for lim.cycles == 0 || d.cycles < lim.cycles/n {
				if lim.dur > 0 && !d.last.Before(deadline) {
					break
				}
				inst.cycle(d)
				d.cycles++
			}
		}(d)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	if c.Obs() != nil {
		// Let a grant's completion notice still in flight when the last
		// op returned land before counters and events are read, so the
		// per-cycle counts of a counted pass come out exact.
		time.Sleep(5 * time.Millisecond)
	}

	runtime.ReadMemStats(&ms)
	res.mallocs = ms.Mallocs - mallocs
	res.stats = readCounts(c).minus(before)
	if o := c.Obs(); o != nil && o.Metrics != nil {
		res.obsAfter = o.Metrics.Snapshot()
	}
	// Only slices the phase covered in full count toward throughput.
	if full := int(res.elapsed / fineSlice); full < slices {
		slices = full
	}
	res.sliceOps = make([]int64, slices)
	for i, d := range ds {
		for k := range d.lat {
			if res.lat[k] == nil {
				res.lat[k] = make([][]samples, len(d.lat[k]))
			}
			for sl := range d.lat[k] {
				res.lat[k][sl] = append(res.lat[k][sl], d.lat[k][sl])
			}
		}
		for sl, v := range d.ops {
			if sl < slices {
				res.sliceOps[sl] += v
			}
			res.opsBy[i] += v
			res.ops += v
		}
		res.cycles += d.cycles
		res.failed += d.failed
		if res.bad == nil {
			res.bad = d.bad
		}
		if trace {
			res.spans = append(res.spans, d.spans)
		}
	}
	return res
}

// opsPerSec is the phase's throughput: the rate of its 99th-percentile
// slice (see fineSlice), or ops over elapsed time for a phase shorter
// than a hundred slices.
func (r *phaseResult) opsPerSec() float64 {
	if len(r.sliceOps) < 100 {
		return r.meanOpsPerSec()
	}
	per := slices.Clone(r.sliceOps)
	slices.Sort(per)
	return float64(percentile(per, 99)) / fineSlice.Seconds()
}

// minShare is the share of the phase's ops the slowest driver
// completed: 0.5 is fair between two, 1 with one driver.
func (r *phaseResult) minShare() float64 {
	lo := r.opsBy[0]
	for _, v := range r.opsBy {
		if v < lo {
			lo = v
		}
	}
	return float64(lo) / float64(max(r.ops, 1))
}

// meanOpsPerSec is ops completed over wall time, the host's gaps
// included.
func (r *phaseResult) meanOpsPerSec() float64 {
	return float64(r.ops) / r.elapsed.Seconds()
}

// latency returns the median of one op kind: the first quartile of
// the medians of the phase's full latSlices (see fineSlice), or the
// median of the whole phase when it is shorter than two slices. n is
// the number of samples in the phase.
func (r *phaseResult) latency(k opKind) (ns float64, n int) {
	full := int(r.elapsed / latSlice)
	if full < 2 {
		s := r.all(k)
		return float64(percentile(s, 50)), len(s)
	}
	var medians []int64
	for sl := 0; sl < full && sl < len(r.lat[k]); sl++ {
		if s := sortedOf(r.lat[k][sl]); len(s) > 0 {
			n += len(s)
			medians = append(medians, percentile(s, 50))
		}
	}
	slices.Sort(medians)
	return float64(percentile(medians, 25)), n
}

// all returns every sample of one op kind in ascending order.
func (r *phaseResult) all(k opKind) []int64 {
	var ss []samples
	for _, sl := range r.lat[k] {
		ss = append(ss, sl...)
	}
	return sortedOf(ss)
}

// protoCounts are the engine counters the per-layer figures use,
// summed over every site's Site.Stats().
type protoCounts struct {
	faults, pages, busy, retries int
	windowWait                   time.Duration
}

func readCounts(c *mirage.Cluster) protoCounts {
	var t protoCounts
	for i := 0; i < c.Sites(); i++ {
		s := c.Site(i).Stats()
		t.faults += s.ReadFaults + s.WriteFaults
		t.pages += s.PagesSent
		t.busy += s.BusyReplies
		t.retries += s.Retries
		t.windowWait += s.WindowWait
	}
	return t
}

func (a protoCounts) minus(b protoCounts) protoCounts {
	return protoCounts{a.faults - b.faults, a.pages - b.pages, a.busy - b.busy, a.retries - b.retries, a.windowWait - b.windowWait}
}

// setUp builds the workload and issues its first cycle on every driver
// in turn (so first-touch faults and TCP dials are set-up, not steady
// state), returning the instance and how long that took.
func setUp(w *workloadDef, seed int64, o *mirage.Obs, check bool) (instance, time.Duration, error) {
	start := time.Now()
	inst, err := w.setup(seed, o, check)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	for i := 0; i < inst.drivers(); i++ {
		d := newDriver(i, 0, false, start)
		d.start, d.last = start, time.Now()
		inst.cycle(d)
		if d.bad != nil {
			inst.cluster().Close()
			return nil, 0, fmt.Errorf("%s: first cycle: %w", w.name, d.bad)
		}
	}
	return inst, time.Since(start), nil
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// checkedPass reruns the workload briefly with op recording on and
// hands the trace to the coherence checker: the protocol invariants
// and read-latest-write must hold on this workload's own access
// pattern, not only on the repo's test scenarios.
func checkedPass(w *workloadDef, seed int64) error {
	inst, _, err := setUp(w, seed, mirage.NewObs(), true)
	if err != nil {
		return err
	}
	c := inst.cluster()
	defer c.Close()
	res := runPhase(inst, limit{cycles: checkedCycles(w), dur: 3 * time.Second}, false, time.Now())
	if res.bad != nil {
		return fmt.Errorf("%s: checked pass: %w", w.name, res.bad)
	}
	if err := inst.verify(); err != nil {
		return fmt.Errorf("%s: checked pass: %w", w.name, err)
	}
	viol, err := c.VerifyTrace()
	if err != nil {
		return fmt.Errorf("%s: checked pass: %w", w.name, err)
	}
	if len(viol) > 0 {
		return fmt.Errorf("%s: checked pass: %d coherence violations, first: %v", w.name, len(viol), viol[0])
	}
	return nil
}

// A run repeats its set-up at least setupMin times, then until
// setupMax repeats or a tenth of the run's measuring time is spent.
const (
	setupMin = 5
	setupMax = 1001
)

// e2eResult is one untraced run of one workload.
type e2eResult struct {
	metrics  map[string]float64
	phase    *phaseResult
	samples  map[string]int
	checkErr error
}

// runE2E measures the end-to-end metrics of one workload: repeated
// set-up, a discarded warm-up, the timed window, the end-of-run value
// check and the checked pass. Observability is off throughout.
func runE2E(w *workloadDef, seed int64, seconds float64) (*e2eResult, error) {
	inst, _, err := setUp(w, seed, nil, false)
	if err != nil {
		return nil, err
	}
	c := inst.cluster()
	defer c.Close()

	window := time.Duration(seconds * float64(time.Second))
	runPhase(inst, limit{dur: window / 8}, false, time.Now())
	res := runPhase(inst, limit{dur: window}, false, time.Now())
	if res.bad == nil {
		res.bad = inst.verify()
	}

	out := &e2eResult{phase: res, metrics: map[string]float64{}, samples: map[string]int{}}
	m := out.metrics
	m["ops_per_s"] = res.opsPerSec()
	m["mean_ops_per_s"] = res.meanOpsPerSec()
	for k, name := range map[opKind]string{kRead: "read", kWrite: "write", kThird: "third"} {
		m[name+"_ns_p50"], out.samples[name] = res.latency(k)
		m[name+"_ns_p99"] = float64(percentile(res.all(k), 99))
	}
	// The samples are summarised; drop them so the live heap read next
	// is the cluster's and the runtime's, not the benchmark's arrays.
	res.lat = [nKinds][][]samples{}
	m["heap_live_mb"] = float64(liveHeap()) / (1 << 20)
	m["allocs_per_op"] = float64(res.mallocs) / float64(max(res.ops, 1))
	m["min_share"] = res.minShare()

	c.Close()

	// Set-up is timed after the window, on a host that is warm (the
	// first second of a process here runs at half speed), from a
	// collected heap each time. A set-up is a few milliseconds of
	// goroutine and socket wake-ups and cannot be cut into slices; on
	// the disturbed host its repeats read from 1× to 50× the quiet
	// figure, median included. Its work has a hard floor, though, so
	// the fastest repeat is reported: the one the host left alone.
	var setups []float64
	budget := window / 10
	for began := time.Now(); len(setups) < setupMin || (len(setups) < setupMax && time.Since(began) < budget); {
		runtime.GC()
		again, took, err := setUp(w, seed, nil, false)
		if err != nil {
			return nil, err
		}
		again.cluster().Close()
		setups = append(setups, took.Seconds())
	}
	m["setup_s"] = slices.Min(setups)

	out.checkErr = checkedPass(w, seed)
	return out, nil
}

// checkedCycles sizes the checked pass: 2 000 cycles, fewer on the
// batched workloads whose cycle is 320 ops, so the default trace
// buffer holds every event.
func checkedCycles(w *workloadDef) int {
	if w.traceCycles == 0 {
		return 400
	}
	return 2000
}
