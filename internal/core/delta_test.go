package core

import (
	"errors"
	"testing"
	"time"
)

// TestSetDeltaRejectsNegative pins the Δ-validation bugfix: a negative
// window is a caller bug, rejected with ErrNegativeDelta and without
// touching the stored value, at both library setter entry points.
func TestSetDeltaRejectsNegative(t *testing.T) {
	n := newTestNet(t, 2, Options{})
	n.newSeg(2, 10*time.Millisecond)

	if err := n.engines[0].SetPageDelta(1, 0, -time.Millisecond); !errors.Is(err, ErrNegativeDelta) {
		t.Fatalf("SetPageDelta(-1ms) = %v, want ErrNegativeDelta", err)
	}
	if err := n.engines[0].SetSegmentDelta(1, -time.Second); !errors.Is(err, ErrNegativeDelta) {
		t.Fatalf("SetSegmentDelta(-1s) = %v, want ErrNegativeDelta", err)
	}
	for p := int32(0); p < 2; p++ {
		if d := n.engines[0].LibraryState(1, p).Delta; d != 10*time.Millisecond {
			t.Fatalf("page %d Δ = %v after rejected sets, want the original 10ms", p, d)
		}
	}

	// The valid paths still work and return nil.
	if err := n.engines[0].SetPageDelta(1, 1, 70*time.Millisecond); err != nil {
		t.Fatalf("SetPageDelta(70ms) = %v", err)
	}
	if err := n.engines[0].SetSegmentDelta(1, 20*time.Millisecond); err != nil {
		t.Fatalf("SetSegmentDelta(20ms) = %v", err)
	}
	if d := n.engines[0].LibraryState(1, 0).Delta; d != 20*time.Millisecond {
		t.Fatalf("page 0 Δ = %v, want 20ms", d)
	}
}

// TestDegradedErrorClearedByInstall is the degraded-sticky regression:
// a page that was failed back (degraded grant) and later installed by a
// successful grant must not keep serving the cached error — the next
// access after the peer heals retries cleanly.
func TestDegradedErrorClearedByInstall(t *testing.T) {
	n := newTestNet(t, 2, Options{Reliability: &Reliability{}})
	n.newSeg(1, 0)
	sn := n.engines[1].segs[1]
	// A past unreachable-peer verdict is still cached when a grant cycle
	// finally installs the page.
	sn.pages[0].relPart().err = ErrUnreachable
	n.acquire(1, 1, 0, false)
	n.settle()
	if err := n.engines[1].FaultError(1, 0); err != nil {
		t.Fatalf("FaultError after a successful install = %v, want nil (stale degraded verdict)", err)
	}
}
