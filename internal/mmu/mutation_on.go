//go:build mirage_mutation

package mmu

// mutateSkipHolderWait: MUTATION BUILD. Invalidate flips the page to
// invalid and hands the frame on without waiting for the accesses that
// hold it — the revocation the hold exists to prevent: a write in
// flight lands in a frame that is already on its way to another site.
const mutateSkipHolderWait = true
