package core

import (
	"testing"
	"time"

	"mirage/internal/obs"
)

// fastAuto is an AutoDelta config with the rate limiter opened up so a
// short driven workload crosses several adjustment intervals: one grant
// cycle and one millisecond between retunes instead of the production
// four cycles / three clock ticks.
func fastAuto() *AutoDelta {
	return &AutoDelta{
		Min: 2 * time.Millisecond, Max: 100 * time.Millisecond,
		Step: 5 * time.Millisecond, CheapDenial: time.Second,
		MinCycles: 1, Cooldown: time.Millisecond,
	}
}

// TestAutoDeltaShrinksOnWriteSharing: two sites alternating writes on
// one page is the E16 ping-pong regime — every window is pure latency
// for the waiting writer, so the controller must walk Δ down
// multiplicatively and never below Min.
func TestAutoDeltaShrinksOnWriteSharing(t *testing.T) {
	o := obs.New()
	ad := fastAuto()
	n := newTestNet(t, 3, Options{AutoDelta: ad, Obs: o})
	const seed = 40 * time.Millisecond
	n.newSeg(1, seed)

	for i := 0; i < 12; i++ {
		n.acquire(1, 1, 0, true)
		n.acquire(2, 1, 0, true)
	}
	n.settle()

	st := n.engines[0].Stats()
	if st.DeltaShrinks < 2 {
		t.Fatalf("DeltaShrinks = %d under write-sharing, want >= 2", st.DeltaShrinks)
	}
	ls := n.engines[0].LibraryState(1, 0)
	if ls.Delta > seed/2 {
		t.Errorf("Δ = %v after ping-pong, want <= %v (halving from %v)", ls.Delta, seed/2, seed)
	}
	if ls.Delta < ad.Min {
		t.Errorf("Δ = %v fell below Min %v", ls.Delta, ad.Min)
	}
	if !ls.WriteSharing {
		t.Error("WriteSharing not reported after alternating write grants")
	}
	if ls.Denied == 0 || ls.DenialRemaining == 0 {
		t.Errorf("denial signals empty: denied=%d remEWMA=%v", ls.Denied, ls.DenialRemaining)
	}

	// Every adjustment must surface in the metrics and the trace.
	adjusts := st.DeltaGrows + st.DeltaShrinks
	if got := o.Metrics.Total(obs.CDeltaShrink); int(got) != st.DeltaShrinks {
		t.Errorf("delta_shrink counter = %d, stats say %d", got, st.DeltaShrinks)
	}
	if got := o.Metrics.Total(obs.CDeltaGrow); int(got) != st.DeltaGrows {
		t.Errorf("delta_grow counter = %d, stats say %d", got, st.DeltaGrows)
	}
	if c := o.Metrics.Hist(obs.HTunedDelta).Count(); int(c) != adjusts {
		t.Errorf("tuned_delta_ns has %d samples, want one per adjustment (%d)", c, adjusts)
	}
	retunes := 0
	for _, ev := range o.Buffer().Events() {
		if ev.Type != obs.EvRetune {
			continue
		}
		retunes++
		if ev.Site != 0 || ev.Seg != 1 || ev.Page != 0 {
			t.Errorf("EvRetune site=%d seg=%d page=%d, want 0/1/0", ev.Site, ev.Seg, ev.Page)
		}
		if d := time.Duration(ev.Arg); d < ad.Min || d > ad.Max {
			t.Errorf("EvRetune Arg %v outside [%v, %v]", d, ad.Min, ad.Max)
		}
	}
	if retunes != adjusts {
		t.Errorf("trace has %d EvRetune events, want one per adjustment (%d)", retunes, adjusts)
	}
}

// TestAutoDeltaGrowsOnCheapDenials: a stable writer whose readers keep
// bouncing off the window is the thrash-amelioration regime (§7.2) —
// denials present, cheap, no write alternation — so the controller must
// grow Δ additively, clamped at Max, and never shrink.
func TestAutoDeltaGrowsOnCheapDenials(t *testing.T) {
	ad := &AutoDelta{
		Min: 0, Max: 60 * time.Millisecond,
		Step: 10 * time.Millisecond, CheapDenial: time.Second,
		MinCycles: 1, Cooldown: time.Millisecond,
	}
	n := newTestNet(t, 3, Options{AutoDelta: ad})
	const seed = 10 * time.Millisecond
	n.newSeg(1, seed)

	for i := 0; i < 12; i++ {
		n.acquire(1, 1, 0, true) // always the same writer: no alternation
		n.acquire(2, 1, 0, false)
	}
	n.settle()

	st := n.engines[0].Stats()
	if st.DeltaGrows < 2 {
		t.Fatalf("DeltaGrows = %d with a stable writer and cheap denials, want >= 2", st.DeltaGrows)
	}
	if st.DeltaShrinks != 0 {
		t.Errorf("DeltaShrinks = %d, want 0 (no write-sharing, denials cheap)", st.DeltaShrinks)
	}
	ls := n.engines[0].LibraryState(1, 0)
	if ls.Delta <= seed {
		t.Errorf("Δ = %v never grew above the %v seed", ls.Delta, seed)
	}
	if ls.Delta > ad.Max {
		t.Errorf("Δ = %v exceeds Max %v", ls.Delta, ad.Max)
	}
	if ls.WriteSharing {
		t.Error("WriteSharing reported for a stable writer")
	}
}

// TestAutoDeltaFirstGrantClampsAndRateLimits: a seed Δ above Max must
// be clamped into the band before the first window goes out (that is
// what keeps Delta=Min verification sound), and a long Cooldown must
// pin Δ there no matter how hard the workload ping-pongs.
func TestAutoDeltaFirstGrantClampsAndRateLimits(t *testing.T) {
	o := obs.New()
	ad := &AutoDelta{
		Min: 0, Max: 15 * time.Millisecond,
		Step:      5 * time.Millisecond,
		MinCycles: 1, Cooldown: time.Hour,
	}
	n := newTestNet(t, 3, Options{AutoDelta: ad, Obs: o})
	n.newSeg(1, 40*time.Millisecond) // seed deliberately above Max

	n.acquire(1, 1, 0, true)
	if w := n.engines[1].Seg(1).Aux(0).Window; w != ad.Max {
		t.Fatalf("first granted window = %v, want the clamped %v", w, ad.Max)
	}
	for i := 0; i < 8; i++ {
		n.acquire(2, 1, 0, true)
		n.acquire(1, 1, 0, true)
	}
	n.settle()

	st := n.engines[0].Stats()
	if adj := st.DeltaGrows + st.DeltaShrinks; adj != 0 {
		t.Errorf("%d adjustments under an hour-long Cooldown, want 0", adj)
	}
	if d := n.engines[0].LibraryState(1, 0).Delta; d != ad.Max {
		t.Errorf("Δ = %v, want pinned at the clamped %v", d, ad.Max)
	}
	for _, ev := range o.Buffer().Events() {
		if ev.Type == obs.EvRetune {
			t.Fatalf("EvRetune at t=%v despite the Cooldown (first-grant clamp must not emit)", ev.T)
		}
	}
}

// TestLibraryStateCarriesDenialSignals: the library records the denial-side
// signals AutoDelta steers by — denied count, the remaining-window EWMA
// from KBusy replies, and the write-sharing indicator — whether or not
// a controller is reading them, and LibraryState shows them.
func TestLibraryStateCarriesDenialSignals(t *testing.T) {
	n := newTestNet(t, 3, Options{})
	const delta = 20 * time.Millisecond
	n.newSeg(1, delta)

	for i := 0; i < 6; i++ {
		n.acquire(1, 1, 0, true)
		n.acquire(2, 1, 0, true)
	}
	n.settle()

	ls := n.engines[0].LibraryState(1, 0)
	if ls.Delta != delta {
		t.Errorf("Δ = %v with no controller, want the stored %v", ls.Delta, delta)
	}
	if ls.Denied == 0 {
		t.Error("Denied = 0 after window denials")
	}
	if ls.DenialRemaining <= 0 || ls.DenialRemaining > delta {
		t.Errorf("DenialRemaining = %v, want in (0, %v]", ls.DenialRemaining, delta)
	}
	if !ls.WriteSharing {
		t.Error("WriteSharing = false after alternating write grants")
	}
}

// TestAutoDeltaBandHoldsAcrossSetters: SetSegmentDelta and SetPageDelta
// write the stored Δ, and the controller decides what is granted — every
// window it hands out is inside [Min, Max] whichever of its branches
// returns (rate-limited, no denials since the last adjustment, retune),
// not only the first grant and the retunes. check.Config.Delta = Min is
// documented to be sound on exactly that (internal/check verifies such a
// trace: TestVerifyAutoDeltaSetterTrace).
func TestAutoDeltaBandHoldsAcrossSetters(t *testing.T) {
	const lo, hi = 10 * time.Millisecond, 40 * time.Millisecond
	for name, cooldown := range map[string]time.Duration{
		"rate-limited": time.Hour,        // every grant after the first returns from the cooldown test
		"free-running": time.Millisecond, // grants reach the denial test and the retune
	} {
		t.Run(name, func(t *testing.T) {
			ad := &AutoDelta{Min: lo, Max: hi, Step: 5 * time.Millisecond, MinCycles: 1, Cooldown: cooldown}
			n := newTestNet(t, 3, Options{AutoDelta: ad})
			n.newSeg(1, 20*time.Millisecond)
			lib := n.engines[0]
			grant := func(site int) {
				t.Helper()
				n.acquire(site, 1, 0, true)
				if w := n.engines[site].Seg(1).Aux(0).Window; w < lo || w > hi {
					t.Fatalf("site %d installed window %v, outside the band [%v, %v]", site, w, lo, hi)
				}
			}
			grant(1)
			for i, set := range []func(time.Duration) error{
				func(d time.Duration) error { return lib.SetSegmentDelta(1, d) },
				func(d time.Duration) error { return lib.SetPageDelta(1, 0, d) },
			} {
				for _, d := range []time.Duration{0, time.Second} {
					if err := set(d); err != nil {
						t.Fatalf("setter %d, Δ=%v: %v", i, d, err)
					}
					grant(2)
					grant(1)
					n.settle() // the next set finds no cycle in flight
				}
			}
		})
	}
}
