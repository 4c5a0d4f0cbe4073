//go:build !mirage_mutation

package mmu

// mutateSkipHolderWait is the production value of the access-hold
// mutation switch: Invalidate takes the page exclusively, so it waits
// for every access in flight before the frame changes hands. Building
// with -tags mirage_mutation flips it so the mutation test (root
// package) can prove the stress test and the checker catch an
// invalidation that overtakes an access.
const mutateSkipHolderWait = false
