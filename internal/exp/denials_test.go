package exp

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"mirage/internal/obs"
)

// TestDenialHistogramIsTheTrace: E16's remaining-time breakdown is the
// registry's denial_remaining_ns, filled at the statement that emits
// EvDeltaDeny — so at every point of the sweep the histogram holds one
// sample per denial event in the trace, and the trace's remaining times
// bucket to the same snapshot.
func TestDenialHistogramIsTheTrace(t *testing.T) {
	for _, p := range DeltaDenialSweep(2*time.Second, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) {
		_, events, err := obs.ReadJSONL(bytes.NewReader(p.TraceJSONL))
		if err != nil {
			t.Fatalf("Δ=%d ticks: %v", p.DeltaTicks, err)
		}
		var h obs.Hist
		for _, ev := range events {
			if ev.Type == obs.EvDeltaDeny {
				h.Observe(ev.Arg)
			}
		}
		if p.Remaining.Count != h.Count() || p.Remaining.Count != p.Denials {
			t.Errorf("Δ=%d ticks: denial_remaining_ns has %d samples, the trace %d EvDeltaDeny, delta_denials %d",
				p.DeltaTicks, p.Remaining.Count, h.Count(), p.Denials)
		}
		if got := h.Snapshot(p.Remaining.Name); !reflect.DeepEqual(got, p.Remaining) {
			t.Errorf("Δ=%d ticks: trace buckets to %+v, registry holds %+v", p.DeltaTicks, got, p.Remaining)
		}
	}
}
