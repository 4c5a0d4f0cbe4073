package exp

import (
	"reflect"
	"testing"
	"time"

	"mirage/internal/core"
)

func TestE20ScalePoint(t *testing.T) {
	flat, err := runScalePoint(10, 0, 2, "", nil)
	if err != nil {
		t.Fatalf("flat: %v", err)
	}
	tree, err := runScalePoint(10, 4, 2, "", nil)
	if err != nil {
		t.Fatalf("tree: %v", err)
	}
	if flat.Relays != 0 {
		t.Errorf("flat run recorded %d relays", flat.Relays)
	}
	if tree.Relays == 0 {
		t.Error("tree run recorded no relays")
	}
	// Flat unicast sends one order per reader from the library site;
	// the k-ary tree caps the library at ~k orders plus the grant
	// traffic, so per-fault sends must drop.
	if tree.LibSends >= flat.LibSends {
		t.Errorf("tree LibSends %.1f not below flat %.1f", tree.LibSends, flat.LibSends)
	}
	if flat.InvalLatMs <= 0 || tree.InvalLatMs <= 0 {
		t.Errorf("non-positive latency: flat %.2f tree %.2f", flat.InvalLatMs, tree.InvalLatMs)
	}
}

func TestE20ScaleChecked(t *testing.T) {
	r, err := ScaleChecked(20, 4, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Violations) != 0 {
		t.Fatalf("clean checked run: %v", r.Violations)
	}
	if r.Events == 0 {
		t.Fatal("checked run produced no trace events")
	}
}

func TestE20ScaleCheckedUnderRelayCrash(t *testing.T) {
	// Crash an interior relay root mid-run: the write cycle must abort
	// cleanly (KInvalFail / order give-up), roll back without
	// resurrecting released copies, and retry after the heal.
	r, err := ScaleChecked(20, 4, "seed=7; crash site=5 from=400ms until=10s")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Violations) != 0 {
		t.Fatalf("relay-crash checked run: %v", r.Violations)
	}
}

// TestAutoScaleReliabilityN100 is the livelock regression test behind
// core.Reliability's auto-scale (promoted from this experiment): at
// N=100 under a light drop plan, the scaled ARQ profile completes the
// barriered workload, while the fixed 30ms profile (an explicit
// AckTimeout is never scaled) retransmits into the library's own install
// backlog. The collapse compounds across rounds — each round's
// retransmit storm leaves the backlog deeper than the last — so one
// round squeaks through but the third wedges every write cycle and the
// run hits the virtual-time deadline instead of finishing.
func TestAutoScaleReliabilityN100(t *testing.T) {
	const plan = "seed=3; drop p=0.02"
	if _, err := runScalePoint(100, 8, 3, plan, nil); err != nil {
		t.Fatalf("auto-scaled profile failed at N=100: %v", err)
	}
	if testing.Short() {
		t.Skip("skipping the livelock (negative) half in -short mode")
	}
	fixed := &core.Reliability{AckTimeout: 30 * time.Millisecond}
	if _, err := runScalePoint(100, 8, 3, plan, fixed); err == nil {
		t.Fatal("fixed 30ms profile completed 3 rounds at N=100; the auto-scale rationale no longer holds")
	}
}

func TestScaleRelayRoots(t *testing.T) {
	if got := ScaleRelayRoots(100, 8); !reflect.DeepEqual(got, []int{1, 13, 25, 38, 50, 62, 75, 87}) {
		t.Errorf("roots(100,8) = %v", got)
	}
	if got := ScaleRelayRoots(10, 0); got != nil {
		t.Errorf("roots(10,0) = %v, want none for flat mode", got)
	}
	if got := ScaleRelayRoots(5, 8); got != nil {
		t.Errorf("roots(5,8) = %v, want none when every order is direct", got)
	}
}
