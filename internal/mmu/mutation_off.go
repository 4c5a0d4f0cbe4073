//go:build !mirage_mutation

package mmu

// The production values of the word's mutation switches. Under -tags
// mirage_mutation they are variables that a mutation test turns on
// (mutation_on.go), to prove that what it runs catches the fault.
//
// MutateSkipHolderWait: Invalidate takes the page exclusively, so it
// waits for every access in flight before the frame changes hands.
// MutateAcceptMovedVersion: Settled refuses an optimistic read whose
// word moved.
const MutateSkipHolderWait, MutateAcceptMovedVersion = false, false
