//go:build mirage_model && mirage_mutation

package mmu

import "testing"

// The word model has teeth: each of the word's mutations (mutation_on.go)
// must show as a violation in some scenario.
//
//	go test -tags 'mirage_model mirage_mutation' ./internal/mmu -run TestMutation
func TestMutationMovedVersionCaughtByModel(t *testing.T) {
	MutateAcceptMovedVersion = true
	defer func() { MutateAcceptMovedVersion = false }()
	bad := checkAllScenarios(t)
	if bad == "" {
		t.Fatal("a read kept across a write went uncaught")
	}
	t.Logf("caught: %s", bad)
}

func TestMutationSkipHolderWaitCaughtByModel(t *testing.T) {
	MutateSkipHolderWait = true
	defer func() { MutateSkipHolderWait = false }()
	bad := checkAllScenarios(t)
	if bad == "" {
		t.Fatal("an invalidation that overtakes a holder went uncaught")
	}
	t.Logf("caught: %s", bad)
}
