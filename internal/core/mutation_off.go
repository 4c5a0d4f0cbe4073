//go:build !mirage_mutation

package core

// mutateSkipWindowCheck is the production value of the coherence
// mutation switch: the clock site enforces the Δ window on every
// invalidation (Table 1). Building with -tags mirage_mutation flips it,
// deliberately breaking the window guarantee so the schedule explorer's
// mutation test (internal/check) can prove it detects the violation.
const mutateSkipWindowCheck = false

// mutateReplAckWithoutApply is the production value of the replication
// mutation switch: a follower acknowledges only what it durably applied.
// Building with -tags mirage_mutation flips it so the mutation test can
// prove the acked-append-lost invariant catches the resulting lost
// update across a takeover.
const mutateReplAckWithoutApply = false

// MutateLeaveWriteOutstanding is the production value of the page-record
// mutation switch: a write grant that lands clears the write request it
// answers. Under -tags mirage_mutation it is a variable the mutation
// test sets, to prove the site-page-idle check sees a flag left behind.
const MutateLeaveWriteOutstanding = false

// MutateEventAfterWord is the production value of the event-order
// mutation switch: install traces a page's new state before the word
// publishes it. Under -tags mirage_mutation it is a variable the mutation
// test sets, to prove the page-event-order invariant sees the swap.
const MutateEventAfterWord = false

// MutateRunOvertakenInval is the production value of the overtaking
// mutation switch: a grantee holds an invalidation that reaches it before
// its write grant's page and runs it after the install. Under -tags
// mirage_mutation it is a variable the mutation test sets, to prove the
// explorer sees an overtaking invalidation run at once.
const MutateRunOvertakenInval = false
