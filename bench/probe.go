package main

import (
	"runtime"
	"time"
)

// probeChunk is how long one timed call of a probe lasts. A probe
// times many such calls and reports the first quartile of their
// per-op costs: on this host about half of all milliseconds are lost
// to the hypervisor (see fineSlice), and a chunk this short is either
// hit by a gap or clean, so the lower quartile is a clean one.
const probeChunk = time.Millisecond

// nsPerOp times fn, which must perform n ops when called with n, for
// about budget and returns nanoseconds per op. The call size is first
// grown until one call lasts a probeChunk, so the clock is read once
// per chunk of work, not once per op.
func nsPerOp(budget time.Duration, fn func(n int)) float64 {
	n := 1
	for {
		t := time.Now()
		fn(n)
		if time.Since(t) >= probeChunk || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var per []float64
	for began := time.Now(); time.Since(began) < budget || len(per) < 4; {
		t := time.Now()
		fn(n)
		per = append(per, float64(time.Since(t))/float64(n))
	}
	q1, _ := quartiles(per)
	return q1
}

// mallocsPerOp is the number of heap objects allocated per op by fn(n),
// process-wide, so work done on other goroutines on fn's behalf counts.
func mallocsPerOp(n int, fn func(n int)) float64 {
	fn(n / 10) // reach steady state: pools filled, queues grown
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	fn(n)
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(n)
}

// probeGroup measures one layer's workload-independent metrics into
// out, spending about per on each timed one.
type probeGroup func(per time.Duration, out map[string]float64) error

var probeGroups = []probeGroup{
	hostProbes, mmuProbes, wireProbes, transportProbes, coreProbes, appProbes, mirageProbes, phaseProbes,
}

// runProbes runs every group within about budget, split evenly over
// the per-layer metrics (most of which are one timed loop each).
func runProbes(budget time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	for _, g := range probeGroups {
		if err := g(budget/time.Duration(len(perLayerMetrics)), out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sink keeps results alive so the compiler cannot drop a probed call.
var sink uint64
