//go:build mirage_mutation

package mirage

import (
	"testing"

	"mirage/internal/mmu"
)

// TestMutationHoldOvertakenCaught proves the access stress has teeth.
// Under the build tag mirage_mutation it turns on mmu's
// MutateSkipHolderWait, so an invalidation marks the page invalid and
// hands its frame on while accesses still hold it. The stress must notice: an op record lands in
// the trace after its site gave the page up (valid-copy), a read sees a
// frame that is no longer the page (read-latest-write, a torn slot), or
// an add is lost.
//
//	go test -tags mirage_mutation . -run 'TestMutation(HoldOvertaken|MovedVersion)Caught'
func TestMutationHoldOvertakenCaught(t *testing.T) {
	mmu.MutateSkipHolderWait = true
	defer func() { mmu.MutateSkipHolderWait = false }()
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

// TestMutationMovedVersionCaughtByStress proves the optimistic read's
// stress has teeth: with mmu's MutateAcceptMovedVersion on, a read is
// kept although a write ended during it, and the readers beside the
// writer at its own site must see a torn record.
func TestMutationMovedVersionCaughtByStress(t *testing.T) {
	mmu.MutateAcceptMovedVersion = true
	defer func() { mmu.MutateAcceptMovedVersion = false }()
	for attempt := 1; attempt <= 5; attempt++ {
		if out := runReadStress(t, 50000); len(out.faults) > 0 {
			t.Logf("caught on attempt %d after %d read rounds: %v", attempt, out.reads.Load(), out.faults[0])
			return
		}
	}
	t.Fatal("mutation not caught in 5 runs of the stress")
}
