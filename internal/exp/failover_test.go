package exp

import "testing"

func TestE18FailoverSweep(t *testing.T) {
	r := FailoverSweep(10, []int{0, 1, 2})
	if len(r.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(r.Points))
	}
	for _, p := range r.Points {
		if !p.Completed {
			t.Errorf("crashes=%d: final=%d want=%d", p.Crashes, p.Final, p.Want)
		}
		if p.Recoveries != p.Crashes {
			t.Errorf("crashes=%d: %d recoveries, want one per crash", p.Crashes, p.Recoveries)
		}
		if len(p.RecoverLatency) != p.Crashes {
			t.Errorf("crashes=%d: %d recovery latencies measured", p.Crashes, len(p.RecoverLatency))
		}
		if p.MaxEpoch != uint32(p.Crashes) {
			t.Errorf("crashes=%d: max epoch %d, want %d", p.Crashes, p.MaxEpoch, p.Crashes)
		}
		// Every point's trace — single- or multi-epoch — must verify.
		for _, v := range p.Violations {
			t.Errorf("crashes=%d: coherence violation: %v", p.Crashes, v)
		}
	}
	if !r.ReplayMatches {
		t.Error("same seed did not replay the same schedule")
	}
}
