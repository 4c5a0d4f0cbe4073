// Package core_test holds the coherence property tests whose oracle is
// internal/check — the external test package breaks the import cycle
// (check drives core engines), so the invariants have exactly one
// implementation: the checker that also verifies production traces.
package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mirage/internal/check"
	"mirage/internal/core"
)

// TestQuickCoherenceRandomSchedule drives random interleavings of reads
// and writes from several sites; the history checker is the oracle
// (latest-write digests, single-writer exclusion, window enforcement,
// quiesced record agreement), fed by the trace of the explored run.
func TestQuickCoherenceRandomSchedule(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sc := check.Scenario{
			Sites:   2 + rng.Intn(3),
			Pages:   1 + rng.Intn(3),
			Delta:   time.Duration(rng.Intn(3)) * 10 * time.Millisecond,
			Options: core.Options{Policy: core.InvalPolicy(rng.Intn(3))},
		}
		res := check.RandomWalk(sc, []int64{seed},
			check.ExploreOpts{OpsPerWalk: 10 + rng.Intn(30)})
		if res.Counterexample != nil {
			t.Logf("seed %d: %v\nrepro: ops=%v choices=%v", seed, res.Violations,
				res.Counterexample.Scenario.Ops, res.Counterexample.Choices)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConcurrentFaultStorm aims every site at one page at once —
// several ops per site, write-heavy — and lets the explorer pick nasty
// same-instant orderings. The checker's final-state pass asserts the
// storm quiesces with the library record agreeing with placement.
func TestQuickConcurrentFaultStorm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sites := 2 + rng.Intn(4)
		sc := check.Scenario{
			Sites:   sites,
			Pages:   1,
			Delta:   time.Duration(rng.Intn(4)) * 5 * time.Millisecond,
			Options: core.Options{Policy: core.InvalPolicy(rng.Intn(3))},
		}
		for s := 0; s < sites; s++ {
			for j := 0; j < 1+rng.Intn(3); j++ {
				op := check.Op{Site: s, Write: rng.Intn(2) == 0}
				if op.Write {
					op.Val = byte(1 + rng.Intn(250))
				}
				sc.Ops = append(sc.Ops, op)
			}
		}
		res := check.RandomWalk(sc, []int64{seed}, check.ExploreOpts{})
		if res.Counterexample != nil {
			t.Logf("seed %d: %v", seed, res.Violations)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
