package main

import (
	"math"
	"slices"
)

// chunkSamples is the recorder's growth unit: appending never copies
// earlier samples, so recording cannot stall a timed op behind a
// multi-megabyte reallocation.
const chunkSamples = 1 << 16

// samples keeps every latency sample of one op kind exactly (raw
// nanoseconds), so a percentile is a real observation and a 10 % bound
// can be resolved — obs.Hist's 2× buckets cannot.
type samples struct {
	chunks [][]int64
	n      int
}

func (s *samples) add(ns int64) {
	if s.n%chunkSamples == 0 {
		s.chunks = append(s.chunks, make([]int64, 0, chunkSamples))
	}
	c := &s.chunks[len(s.chunks)-1]
	*c = append(*c, ns)
	s.n++
}

// sortedOf merges the samples of several recorders (one per driver)
// into one ascending slice.
func sortedOf(ss []samples) []int64 {
	var out []int64
	for i := range ss {
		for _, c := range ss[i].chunks {
			out = append(out, c...)
		}
	}
	slices.Sort(out)
	return out
}

// percentile is the nearest-rank percentile of an ascending slice:
// the smallest sample with at least p % of the samples at or below it.
// It returns 0 for an empty slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// medianF is the median of vs (mean of the two middle values for an
// even count); 0 when empty.
func medianF(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of vs by the
// exclusive method, the one Python's statistics.quantiles(n=4) uses,
// so the spread this program prints is the one the acceptance rule is
// stated in. Fewer than two values give (v, v).
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(3)
}
