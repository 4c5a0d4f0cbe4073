package exp

import (
	"reflect"
	"testing"
	"time"
)

// The acceptance property of the parallel harness: a sweep's results
// are bit-identical at any worker count, because every point owns a
// private virtual-time cluster. Run representative sweeps at
// Parallelism 1 and 4 and require deep equality.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) (f7 []Figure7Point, f8 []Figure8Point, ns []NSitePoint, pp []PolicyPoint) {
		old := Parallelism
		Parallelism = par
		defer func() { Parallelism = old }()
		dur := 200 * time.Millisecond
		f7 = Figure7(dur, []int{0, 2, 8})
		f8 = Figure8(CountersConfig{Duration: dur}, []time.Duration{0, 120 * time.Millisecond, 600 * time.Millisecond})
		ns = NSiteWorstCase(dur, []int{2, 3})
		pp = InvalidationAblation(CountersConfig{Duration: dur}, []time.Duration{0, 120 * time.Millisecond})
		return
	}
	f7a, f8a, nsa, ppa := run(1)
	f7b, f8b, nsb, ppb := run(4)
	if !reflect.DeepEqual(f7a, f7b) {
		t.Errorf("Figure7 differs across parallelism:\n par=1: %+v\n par=4: %+v", f7a, f7b)
	}
	if !reflect.DeepEqual(f8a, f8b) {
		t.Errorf("Figure8 differs across parallelism:\n par=1: %+v\n par=4: %+v", f8a, f8b)
	}
	if !reflect.DeepEqual(nsa, nsb) {
		t.Errorf("NSiteWorstCase differs across parallelism:\n par=1: %+v\n par=4: %+v", nsa, nsb)
	}
	if !reflect.DeepEqual(ppa, ppb) {
		t.Errorf("InvalidationAblation differs across parallelism:\n par=1: %+v\n par=4: %+v", ppa, ppb)
	}
}

// sameTraces reports, per point, a trace digest that differs between
// two runs of a sweep (or is missing): the serialized protocol timeline
// — not just a subset of the point's fields — must be byte-identical.
// This is what makes traces diffable artifacts: two runs of the same
// scenario can be compared with cmp(1).
func sameTraces(t *testing.T, name string, a, b []Trace) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d points against %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i].Digest == "" || a[i].Digest != b[i].Digest {
			t.Errorf("%s point %d: trace sha256 %q against %q across parallelism", name, i, a[i].Digest, b[i].Digest)
		}
	}
}

// traces lists the traces of a sweep's points.
func traces[P interface{ trace() Trace }](pts ...P) []Trace {
	out := make([]Trace, len(pts))
	for i, p := range pts {
		out[i] = p.trace()
	}
	return out
}

// The observability acceptance property: a traced run's serialized
// protocol timeline is byte-identical at any worker count.
func TestDeltaDenialSweepTraceDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) []DeltaDenialPoint {
		old := Parallelism
		Parallelism = par
		defer func() { Parallelism = old }()
		return DeltaDenialSweep(500*time.Millisecond, []int{0, 2, 6})
	}
	a := run(1)
	b := run(4)
	sameTraces(t, "DeltaDenialSweep", traces(a...), traces(b...))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("DeltaDenialSweep differs across parallelism")
	}
	// The traced points must see denials where Δ > 0 — otherwise the
	// byte comparison is vacuous.
	if a[1].Denials == 0 || a[2].Denials == 0 {
		t.Errorf("expected Δ-window denials at Δ>0, got %d and %d", a[1].Denials, a[2].Denials)
	}
}

func TestFaultSweepDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep is slow")
	}
	run := func(par int) FaultSweepResult {
		old := Parallelism
		Parallelism = par
		defer func() { Parallelism = old }()
		return FaultSweep(3, []float64{0, 5})
	}
	a := run(1)
	b := run(4)
	sameTraces(t, "FaultSweep", traces(append(a.Points, a.Crash)...), traces(append(b.Points, b.Crash)...))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("FaultSweep differs across parallelism")
	}
	if !a.ReplayMatches {
		t.Error("replay determinism check failed")
	}
}

func TestWorkersResolution(t *testing.T) {
	old := Parallelism
	defer func() { Parallelism = old }()
	Parallelism = 3
	if w := workers(10); w != 3 {
		t.Fatalf("workers(10) = %d, want 3", w)
	}
	if w := workers(2); w != 2 {
		t.Fatalf("workers(2) = %d, want capped 2", w)
	}
	Parallelism = 0
	if w := workers(1); w != 1 {
		t.Fatalf("workers(1) = %d, want 1", w)
	}
}
