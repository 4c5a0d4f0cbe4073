package exp

import (
	"slices"
	"testing"
	"time"

	"mirage/internal/vaxmodel"
)

// The experiment tests assert the paper-shape properties at reduced
// durations; the full-length sweeps run in cmd/miragebench and the
// top-level benchmarks.

func TestE1ComponentTimings(t *testing.T) {
	r := ComponentTimings()
	if r.ShortRTT < 12*time.Millisecond || r.ShortRTT > 13*time.Millisecond {
		t.Fatalf("short RTT = %v, paper 12.9 ms", r.ShortRTT)
	}
	if r.PagePlusReply < 21*time.Millisecond || r.PagePlusReply > 22*time.Millisecond {
		t.Fatalf("1KB+reply = %v, paper 21.5 ms", r.PagePlusReply)
	}
}

func TestE2Table3(t *testing.T) {
	r := Table3()
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.ModelTotal < 27*time.Millisecond || r.ModelTotal > 28*time.Millisecond {
		t.Fatalf("model total = %v, paper 27.5 ms", r.ModelTotal)
	}
	// Full-simulator measurement includes waking the faulting process.
	if r.MeasuredTotal < r.ModelTotal || r.MeasuredTotal > r.ModelTotal+4*time.Millisecond {
		t.Fatalf("measured = %v vs model %v", r.MeasuredTotal, r.ModelTotal)
	}
	for _, row := range r.Rows {
		if row.Model != row.Paper {
			t.Fatalf("row %q: model %v != paper %v", row.Name, row.Model, row.Paper)
		}
	}
}

func TestE3SingleSiteYield(t *testing.T) {
	r := SingleSiteWorstCase(5 * time.Second)
	if r.NoYield < 3 || r.NoYield > 7 {
		t.Fatalf("no-yield = %.1f cycles/s, paper ≈5", r.NoYield)
	}
	if r.WithYield < 130 || r.WithYield > 200 {
		t.Fatalf("with-yield = %.1f cycles/s, paper ≈166", r.WithYield)
	}
	if r.Speedup < 20 {
		t.Fatalf("speedup = %.1f, paper ≈35", r.Speedup)
	}
}

func TestE4Figure7Shape(t *testing.T) {
	pts := Figure7(10*time.Second, []int{0, 2, 6})
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	d0, d2, d6 := pts[0], pts[1], pts[2]
	// §7.3: "At Δ=0 we would expect roughly 8 cycles/second."
	if d0.Yield < 6.5 || d0.Yield > 9.5 {
		t.Fatalf("yield(0) = %.2f, paper expects ≈8", d0.Yield)
	}
	// §7.3: ≈4.5 cycles/s at Δ=2 (90%% of the 5/s bound).
	if d2.Yield < 4 || d2.Yield > 6.5 {
		t.Fatalf("yield(2) = %.2f, paper ≈4.5", d2.Yield)
	}
	// "nearly a 50% improvement in throughput using yield" at Δ=2.
	if d2.Yield < 1.25*d2.NoYield {
		t.Fatalf("yield advantage at Δ=2 = %.2fx, paper ≈1.5x", d2.Yield/d2.NoYield)
	}
	// Throughput decreases with Δ for the yield version.
	if !(d0.Yield > d2.Yield && d2.Yield > d6.Yield) {
		t.Fatalf("yield curve not declining: %v", pts)
	}
	// The curves converge toward the quantum.
	gap2 := d2.Yield / d2.NoYield
	gap6 := d6.Yield / d6.NoYield
	if gap6 >= gap2 {
		t.Fatalf("curves must converge: ratio(2)=%.2f ratio(6)=%.2f", gap2, gap6)
	}
}

func TestE4TrafficPerCycle(t *testing.T) {
	tr := MeasureWorstCaseTraffic(10*time.Second, 0)
	if tr.Cycles < 10 {
		t.Fatalf("cycles = %d", tr.Cycles)
	}
	// The paper counts 9 messages (3 large) per cycle; our protocol
	// carries explicit completion traffic, so somewhat more.
	if tr.MsgsPerCycle < 6 || tr.MsgsPerCycle > 20 {
		t.Fatalf("msgs/cycle = %.1f", tr.MsgsPerCycle)
	}
	if tr.LargePerCycle < 1.5 || tr.LargePerCycle > 4.5 {
		t.Fatalf("large/cycle = %.1f, paper counts 3", tr.LargePerCycle)
	}
	if tr.DerivedBound < 80*time.Millisecond || tr.DerivedBound > 200*time.Millisecond {
		t.Fatalf("derived bound = %v, paper derives 109 ms", tr.DerivedBound)
	}
}

func TestE5Figure8Shape(t *testing.T) {
	pts := Figure8(10*time.Second, []time.Duration{
		0, 120 * time.Millisecond, 600 * time.Millisecond, 1200 * time.Millisecond,
	})
	at := func(d time.Duration) float64 {
		for _, p := range pts {
			if p.Delta == d {
				return p.InsnPerSec
			}
		}
		t.Fatalf("missing %v", d)
		return 0
	}
	peak := at(600 * time.Millisecond)
	// Peak near the paper's 115,000 insn/s at Δ=600 ms.
	if peak < 0.8*PaperFigure8Peak || peak > 1.1*PaperFigure8Peak {
		t.Fatalf("peak = %.0f, paper 115,000", peak)
	}
	// Contention side below the good range; retention side declining.
	if at(0) >= at(120*time.Millisecond) {
		t.Fatalf("contention side not rising: %v", pts)
	}
	if at(120*time.Millisecond) >= peak {
		t.Fatalf("Δ=120 should be below the peak: %v", pts)
	}
	if at(1200*time.Millisecond) >= peak {
		t.Fatalf("retention side not falling: %v", pts)
	}
	// §8.0: the retention falloff is more gradual than the contention
	// falloff (same 600 ms distance from the peak each way).
	contentionDrop := peak - at(0)
	retentionDrop := peak - at(1200*time.Millisecond)
	if retentionDrop >= contentionDrop {
		t.Fatalf("retention drop %.0f should be gentler than contention drop %.0f",
			retentionDrop, contentionDrop)
	}
}

func TestE6ThrashingAmelioration(t *testing.T) {
	pts := ThrashingAmelioration(10*time.Second, []int{0, 6})
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// Raising Δ must help the bystander (§7.3) even as it costs the
	// thrashing application.
	if pts[1].BystanderUnits <= pts[0].BystanderUnits {
		t.Fatalf("bystander did not improve with Δ: %v", pts)
	}
	if pts[1].AppCycles >= pts[0].AppCycles {
		t.Fatalf("app throughput should drop with Δ: %v", pts)
	}
}

func TestE7InvalidationAblation(t *testing.T) {
	pts := InvalidationAblation(8*time.Second,
		[]time.Duration{900 * time.Millisecond})
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	var retry, queue PolicyPoint
	for _, p := range pts {
		switch p.Policy.String() {
		case "retry":
			retry = p
		case "queue":
			queue = p
		}
	}
	if retry.Retries == 0 {
		t.Fatal("paper policy must exhibit invalidation retries")
	}
	if queue.Retries != 0 {
		t.Fatal("queued-invalidation policy must not retry")
	}
	// On the retention side a promptly honored invalidation frees the
	// idle page sooner; the queued optimization must not lose there.
	if queue.InsnPerSec < 0.98*retry.InsnPerSec {
		t.Fatalf("queue %f vs retry %f at Δ=900ms", queue.InsnPerSec, retry.InsnPerSec)
	}
}

func TestE8DynamicDelta(t *testing.T) {
	r := DynamicDelta(8 * time.Second)
	if r.Fixed[2] <= r.Fixed[0] {
		t.Fatalf("Δ=600 should beat Δ=0: %+v", r)
	}
	// Whatever it is seeded with, the controller must not land below the
	// worst fixed choice. (It does not reach the best either: E30.)
	worst := slices.Min(r.Fixed[:])
	for i, a := range r.Adaptive {
		if a < worst {
			t.Fatalf("adaptive seeded at %v: %f below worst fixed %f", DynamicDeltas[i], a, worst)
		}
	}
	// Δ = 0 grants no window, so nothing is ever denied and the
	// controller has no signal to move on: the run is the fixed one.
	if r.Adaptive[0] != r.Fixed[0] {
		t.Fatalf("adaptive seeded at Δ=0 = %f, fixed Δ=0 = %f: want the same run", r.Adaptive[0], r.Fixed[0])
	}
}

func TestE9TestAndSet(t *testing.T) {
	r := TestAndSetScenario(10*time.Second, []int{0, 2})
	if len(r.Points) != 2 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// §7.2: "the use of test&set can degrade performance substantially
	// if the process in the locked region writes to the particular
	// page of the lock while a remote test&set reader is testing."
	for _, p := range r.Points {
		if p.CritPerSec > 0.75*r.Solo {
			t.Fatalf("remote tester should cost the writer substantially: solo %.1f vs %.1f at Δ=%d",
				r.Solo, p.CritPerSec, p.DeltaTicks)
		}
		if p.PageMoves < 20 {
			t.Fatalf("expected lock-page thrashing, moves = %d", p.PageMoves)
		}
	}
}

func TestE10Baseline(t *testing.T) {
	pts := BaselineComparison(8 * time.Second)
	if len(pts) != 8 {
		t.Fatalf("points = %d", len(pts))
	}
	get := func(sys, wl string) BaselinePoint {
		for _, p := range pts {
			if p.System == sys && p.Workload == wl {
				return p
			}
		}
		t.Fatalf("missing %s/%s", sys, wl)
		return BaselinePoint{}
	}
	// With its tuned window, Mirage's representative throughput must
	// beat the windowless baseline.
	mir := get("mirage(Δ=600ms)", "representative")
	for _, sys := range []string{"ivy-central", "ivy-dynamic"} {
		base := get(sys, "representative")
		if mir.Throughput <= base.Throughput {
			t.Fatalf("mirage(600ms) %.0f <= %s %.0f", mir.Throughput, sys, base.Throughput)
		}
	}
	// Every system makes progress on both workloads.
	for _, p := range pts {
		if p.Throughput <= 0 {
			t.Fatalf("no progress: %+v", p)
		}
	}
}

func TestE11RemapCost(t *testing.T) {
	pts := RemapCost([]int{1, 32, 128, 256})
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// Dispatch cost grows linearly at ~RemapPerPage per page.
	for i := 1; i < len(pts); i++ {
		if pts[i].DispatchCost <= pts[i-1].DispatchCost {
			t.Fatalf("dispatch cost not increasing: %v", pts)
		}
	}
	slope := (pts[3].DispatchCost - pts[0].DispatchCost) / time.Duration(pts[3].Pages-pts[0].Pages)
	if slope < vaxmodel.RemapPerPageMin || slope > vaxmodel.RemapPerPageMax {
		t.Fatalf("remap slope = %v/page, paper measures 106–125 µs", slope)
	}
}

func TestE4bNSiteWorstCase(t *testing.T) {
	pts := NSiteWorstCase(20*time.Second, []int{2, 3, 4})
	for _, p := range pts {
		if p.CyclesPerSec <= 0 {
			t.Fatalf("no progress at %d sites: %+v", p.Sites, pts)
		}
	}
	// More sites per rotation: each rotation costs more transfers, so
	// rotation rate falls and per-cycle traffic grows.
	if !(pts[0].CyclesPerSec > pts[1].CyclesPerSec && pts[1].CyclesPerSec > pts[2].CyclesPerSec) {
		t.Fatalf("ring rate should fall with sites: %+v", pts)
	}
	if pts[2].MsgsPerCycle <= pts[0].MsgsPerCycle {
		t.Fatalf("per-cycle traffic should grow with sites: %+v", pts)
	}
}

func TestE12HotSpots(t *testing.T) {
	rs := HotSpots(10 * time.Second)
	if len(rs) != 3 {
		t.Fatalf("results = %d", len(rs))
	}
	uniSmall, uniLarge, perPage := rs[0], rs[1], rs[2]
	// Uniform small: cold suffers relative to uniform large.
	if uniSmall.ColdInsn >= uniLarge.ColdInsn {
		t.Fatalf("cold should prefer the large window: %+v", rs)
	}
	// Uniform large: hot suffers badly relative to uniform small.
	if uniLarge.HotOps >= uniSmall.HotOps/2 {
		t.Fatalf("hot should prefer the small window: %+v", rs)
	}
	// Per-page windows recover most of both.
	if perPage.HotOps < 0.7*uniSmall.HotOps {
		t.Fatalf("per-page hot %f << uniform-small hot %f", perPage.HotOps, uniSmall.HotOps)
	}
	if perPage.ColdInsn < 0.8*uniLarge.ColdInsn {
		t.Fatalf("per-page cold %f << uniform-large cold %f", perPage.ColdInsn, uniLarge.ColdInsn)
	}
}

func TestE13LoadSensitivity(t *testing.T) {
	r := LoadSensitivity(8 * time.Second)
	if r.UnloadedInsn <= 0 || r.LoadedInsn <= 0 {
		t.Fatalf("no progress: %+v", r)
	}
	// §9.0: load decreases the effective Δ — the loaded site must do
	// meaningfully less within the same real-time windows.
	if r.EffectiveDrop < 0.15 {
		t.Fatalf("load barely affected the window (drop %.2f): %+v", r.EffectiveDrop, r)
	}
	if r.EffectiveDrop > 0.95 {
		t.Fatalf("loaded site nearly starved (drop %.2f): %+v", r.EffectiveDrop, r)
	}
}
