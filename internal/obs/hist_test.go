package obs

import (
	"math"
	"reflect"
	"testing"
)

// histOf returns a histogram holding n[i] samples of value v[i].
func histOf(v, n []int64) *Hist {
	h := new(Hist)
	for i := range v {
		for k := int64(0); k < n[i]; k++ {
			h.Observe(v[i])
		}
	}
	return h
}

// TestHistBucketBounds pins the one layout: bucket 0 holds v ≤ 1, bucket
// i holds 2^(i-1) < v ≤ 2^i, and the top bucket's bound reads as
// MaxInt64 so no int64 sample overflows.
func TestHistBucketBounds(t *testing.T) {
	cases := []struct{ v, bound int64 }{
		{math.MinInt64, 1}, {-7, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8},
		{1000, 1024}, {1024, 1024}, {1025, 2048}, {13_000, 16_384},
		{1 << 40, 1 << 40}, {1<<40 + 1, 1 << 41},
		{1 << 62, 1 << 62}, {1<<62 + 1, math.MaxInt64}, {math.MaxInt64, math.MaxInt64},
	}
	for _, c := range cases {
		s := histOf([]int64{c.v}, []int64{1}).Snapshot("")
		if len(s.Bounds) != 1 || s.Bounds[0] != c.bound {
			t.Errorf("sample %d: bounds %v, want [%d]", c.v, s.Bounds, c.bound)
		}
	}
	for k := 0; k < 63; k++ {
		if got := bucketBound(bucketOf(1 << k)); got != 1<<k {
			t.Errorf("2^%d lands under bound %d", k, got)
		}
	}
}

// TestHistZeroValue: a Hist needs no constructor.
func TestHistZeroValue(t *testing.T) {
	var h Hist
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Snapshot("x").Bounds != nil {
		t.Fatalf("empty zero value reads %+v", h.Snapshot("x"))
	}
	h.Observe(13_000)
	if h.Count() != 1 || h.Sum() != 13_000 || h.Max() != 13_000 || h.Quantile(0.5) != 16_384 {
		t.Fatalf("one 13µs sample reads %+v", h.Snapshot("x"))
	}
}

func TestHistQuantileEmpty(t *testing.T) {
	if got := new(Hist).Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram: got %d, want 0", got)
	}
}

func TestHistQuantileSingleBucket(t *testing.T) {
	h := histOf([]int64{9}, []int64{7})
	for _, q := range []float64{0.001, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 16 {
			t.Fatalf("q=%v: got %d, want 16", q, got)
		}
	}
}

func TestHistQuantileClamp(t *testing.T) {
	h := histOf([]int64{1, 2, 4, 8}, []int64{1, 1, 1, 1})
	// q ≤ 0 resolves the first non-empty bucket.
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("q=0: got %d, want 1", got)
	}
	if got := h.Quantile(-3); got != 1 {
		t.Fatalf("q=-3: got %d, want 1", got)
	}
	// q > 1 behaves as q = 1.
	if got := h.Quantile(7); got != 8 {
		t.Fatalf("q=7: got %d, want 8", got)
	}
}

// TestHistQuantileTopBucket: samples past 2^62 share the top bucket,
// whose bound is MaxInt64 — a bucket bound like any other.
func TestHistQuantileTopBucket(t *testing.T) {
	const huge = int64(1)<<62 + 555
	h := histOf([]int64{10, huge, math.MaxInt64}, []int64{2, 2, 1})
	if got := h.Quantile(0.4); got != 16 {
		t.Fatalf("p40: got %d, want 16", got)
	}
	if got := h.Quantile(1); got != math.MaxInt64 {
		t.Fatalf("p100: got %d, want MaxInt64", got)
	}
}

func TestHistQuantileMidBuckets(t *testing.T) {
	h := histOf([]int64{1, 2, 3, 8}, []int64{10, 80, 9, 1})
	cases := []struct {
		q    float64
		want int64
	}{
		// target = int(q·total) clamped to ≥ 1: q=0.999 of 100 samples
		// targets sample 99, still inside the ≤4 bucket.
		{0.05, 1}, {0.10, 1}, {0.11, 2}, {0.50, 2}, {0.90, 2}, {0.95, 4}, {0.99, 4}, {0.999, 4}, {1, 8},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Fatalf("q=%v: got %d, want %d", c.q, got, c.want)
		}
	}
}

func TestHistSummary(t *testing.T) {
	h := histOf([]int64{1, 2, 4, 8, 16}, []int64{500, 450, 40, 9, 1})
	if s := h.Summary(); s != (HistSummary{P50: 1, P95: 2, P99: 4, P999: 8}) {
		t.Fatalf("unexpected summary: %+v", s)
	}
}

// TestFlushHistSnapshotsUnchanged: the two size histograms always began
// at 1, so for the same samples their snapshots are the ones the
// per-histogram low-bound layout produced, bucket for bucket.
func TestFlushHistSnapshotsUnchanged(t *testing.T) {
	r := NewRegistry()
	for _, v := range []int64{1, 1, 2, 3, 4, 5, 8, 9, 64, 100} {
		r.Hist(HFlushFrames).Observe(v)
	}
	for _, v := range []int64{40, 512, 4096, 65537, 1 << 23} {
		r.Hist(HFlushBytes).Observe(v)
	}
	want := []HistSnapshot{
		{Name: "flush_frames_per_batch", Count: 10, Sum: 197, Max: 100, Mean: 19.7,
			Bounds: []int64{1, 2, 4, 8, 16, 64, 128}, Buckets: []int64{2, 1, 2, 2, 1, 1, 1}},
		{Name: "flush_bytes_per_batch", Count: 5, Sum: 70185 + 1<<23, Max: 1 << 23, Mean: float64(70185+1<<23) / 5,
			Bounds: []int64{64, 512, 4096, 131072, 1 << 23}, Buckets: []int64{1, 1, 1, 1, 1}},
	}
	if got := r.Snapshot().Hists; !reflect.DeepEqual(got, want) {
		t.Fatalf("flush snapshots:\n got %+v\nwant %+v", got, want)
	}
}
