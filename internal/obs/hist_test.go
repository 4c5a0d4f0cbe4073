package obs

import "testing"

// histOf returns a histogram with lowest bound lo holding n[i] samples
// of value v[i].
func histOf(lo int64, v, n []int64) *Hist {
	h := NewHist(lo)
	for i := range v {
		for k := int64(0); k < n[i]; k++ {
			h.Observe(v[i])
		}
	}
	return h
}

func TestHistQuantileEmpty(t *testing.T) {
	if got := NewHist(1).Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram: got %d, want 0", got)
	}
	var zero Hist
	if got := zero.Quantile(0.5); got != 0 {
		t.Fatalf("zero histogram: got %d, want 0", got)
	}
}

func TestHistQuantileSingleBucket(t *testing.T) {
	h := histOf(10, []int64{9}, []int64{7})
	for _, q := range []float64{0.001, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 10 {
			t.Fatalf("q=%v: got %d, want 10", q, got)
		}
	}
}

func TestHistQuantileClamp(t *testing.T) {
	h := histOf(1, []int64{1, 2, 4, 8}, []int64{1, 1, 1, 1})
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

func TestHistQuantileOverflowBucket(t *testing.T) {
	// Samples past the last bound land in the overflow bucket, which
	// resolves to the largest sample.
	const huge = int64(10)<<histBucketCount + 555
	h := histOf(10, []int64{10, huge - 1, huge}, []int64{2, 2, 1})
	if got := h.Quantile(0.5); got != 10 {
		t.Fatalf("p50: got %d, want 10", got)
	}
	if got := h.Quantile(1); got != huge {
		t.Fatalf("p100: got %d, want max %d", got, huge)
	}
}

func TestHistQuantileMidBuckets(t *testing.T) {
	h := histOf(1, []int64{1, 2, 3, 8}, []int64{10, 80, 9, 1})
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
	h := histOf(1, []int64{1, 2, 4, 8, 16}, []int64{500, 450, 40, 9, 1})
	if s := h.Summary(); s != (HistSummary{P50: 1, P95: 2, P99: 4, P999: 8}) {
		t.Fatalf("unexpected summary: %+v", s)
	}
}
