//go:build mirage_mutation

package mmu

// MUTATION BUILD: the word's mutation switches, off until a test turns
// one on.
//
// MutateSkipHolderWait: Invalidate flips the page to invalid and hands
// the frame on without waiting for the accesses that hold it — the
// revocation the hold exists to prevent: a write in flight lands in a
// frame that is already on its way to another site.
//
// MutateAcceptMovedVersion: Settled keeps an optimistic read whose
// version moved, so a read that a write overlapped returns bytes of
// both.
var MutateSkipHolderWait, MutateAcceptMovedVersion bool
