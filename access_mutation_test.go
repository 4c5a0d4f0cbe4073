//go:build mirage_mutation

package mirage

import "testing"

// TestMutationHoldOvertakenCaught proves the access stress has teeth.
// The build tag mirage_mutation flips mmu's mutateSkipHolderWait, so an
// invalidation marks the page invalid and hands its frame on while
// accesses still hold it. The stress must notice: an op record lands in
// the trace after its site gave the page up (valid-copy), a read sees a
// frame that is no longer the page (read-latest-write, a torn slot), or
// an add is lost.
//
// Run it alone — the tag breaks the protocol, so the package's other
// tests rightly fail under it:
//
//	go test -tags mirage_mutation . -run TestMutationHoldOvertakenCaught
func TestMutationHoldOvertakenCaught(t *testing.T) {
	for attempt := 1; attempt <= 5; attempt++ {
		c, _, out := runAccessStress(t, Options{}, stressRounds)
		c.Close()
		lost := false
		for _, v := range out.counter {
			lost = lost || uint64(v) != out.adds
		}
		if len(out.violations) > 0 || len(out.faults) > 0 || lost {
			t.Logf("caught on attempt %d: %d trace violations, %d broken promises, counter %v after %d adds",
				attempt, len(out.violations), len(out.faults), out.counter, out.adds)
			if len(out.violations) > 0 {
				t.Logf("first violation: %v", out.violations[0])
			}
			return
		}
	}
	t.Fatal("mutation not caught in 5 runs of the stress")
}
