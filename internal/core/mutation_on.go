//go:build mirage_mutation

package core

// mutateSkipWindowCheck: MUTATION BUILD. The clock site ignores
// unexpired Δ windows and honors every invalidation immediately —
// revoking possession the protocol promised (§6.1). Only the mutation
// test builds with this tag; it asserts the schedule explorer catches
// the violation with a replayable counterexample.
const mutateSkipWindowCheck = true

// mutateReplAckWithoutApply: MUTATION BUILD. A replication follower
// acknowledges appends it never applies — the durability lie the
// acked-append-lost invariant (internal/check) exists to catch: an
// election can then install a log missing mutations the leader already
// acknowledged at quorum.
const mutateReplAckWithoutApply = true

// MutateLeaveWriteOutstanding: MUTATION BUILD, and off until a test
// turns it on. A requester then installs a write grant and keeps its
// write request marked outstanding; the site-page-idle check
// (internal/check) must see the flag in the drained cluster. It is a
// variable, not a third constant, because it cannot be on beside the
// others: a site with the flag stuck never asks for the page again, so
// every workload that write-faults twice on a page stops — the other
// mutation kills' scenarios included.
var MutateLeaveWriteOutstanding = false

// MutateEventAfterWord: MUTATION BUILD, and off until a test turns it
// on. install then traces a page's new state after the word has
// published it, so an access the grant lets in can precede the grant's
// event — the order the live checker's soundness rests on (DESIGN.md
// §17), which nothing but the page-event-order invariant sees: the
// trace itself is byte for byte the same.
var MutateEventAfterWord = false

// MutateRunOvertakenInval: MUTATION BUILD, and off until a test turns it
// on. A grantee then runs an invalidation that overtook its write grant's
// page at once instead of holding it until the page is in: with no copy
// to invalidate, the engine panics ("inval for absent page"), which the
// explorer reports as a counterexample. It is a variable, like the two
// above: on beside the window mutation it would end that kill's
// schedules in this panic first.
var MutateRunOvertakenInval = false
