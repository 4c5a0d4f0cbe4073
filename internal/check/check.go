// Package check is the coherence verification subsystem: a trace-driven
// history checker and a schedule explorer for the Mirage DSM protocol.
//
// Mirage's claim (PAPER.md §3–§4) is coherence: at most one writable
// copy of a page ever exists, every read observes the latest completed
// write, and the clock site's time window Δ guarantees uninterrupted
// possession. This package turns those claims into executable
// invariants.
//
// The history checker (Checker, Verify) consumes the schema-v1 protocol
// event trace from internal/obs — including the EvRead/EvWrite per-op
// records the access layers emit — and verifies, per page:
//
//   - single-writer exclusion: a writable copy never coexists with any
//     other copy (paper Table 1);
//   - write serialization: library grant cycles never overlap and cycle
//     numbers only move forward (§6.0);
//   - read-your-writes / latest-write: a read of a byte range observes
//     the digest of the most recent completed write to it (§3);
//   - no reads of invalidated copies: op events only occur at sites
//     whose copy is live (§6.1);
//   - Δ-window possession: a granted window is never revoked early at
//     the clock site, under any invalidation policy (§6.1, Table 1);
//   - exactly-once grant application: no grant cycle commits twice and
//     no granted install is applied twice (reliability layer, DESIGN.md
//     §7);
//   - replicated-log agreement: with Options.Replication on, sites
//     apply log entries in strictly ascending index order and agree on
//     every (epoch, index) position, and no quorum-acknowledged
//     mutation is lost across a takeover election (DESIGN.md §15).
//
// The schedule explorer (Exhaustive, RandomWalk) drives small clusters
// of real protocol engines over the internal/sim kernel, permuting
// same-instant event order through the kernel's Chooser hook: bounded
// exhaustive enumeration for tiny configurations, seed-swept random
// walks — optionally composed with internal/chaos fault plans — for
// larger ones. A violating schedule is shrunk and serialized as a Repro
// (scenario + choice prefix) that replays byte-identically.
package check

import (
	"fmt"
	"time"

	"mirage/internal/obs"
)

// Invariant names reported in Violations.
const (
	// InvSingleWriter: a writable copy coexisted with another copy.
	InvSingleWriter = "single-writer"
	// InvWriteSerial: grant cycles overlapped or ran backwards.
	InvWriteSerial = "write-serialization"
	// InvLatestWrite: a read observed a value other than the latest
	// completed write.
	InvLatestWrite = "read-latest-write"
	// InvValidCopy: an op ran at a site whose copy was invalid.
	InvValidCopy = "read-valid-copy"
	// InvWindow: possession was revoked inside an unexpired Δ window.
	InvWindow = "window-revoked-early"
	// InvExactlyOnce: a grant cycle or granted install applied twice.
	InvExactlyOnce = "grant-exactly-once"
	// InvLogPrefix: replicated-log prefix agreement was broken — a site
	// applied log indexes out of order within an epoch, or two sites
	// disagreed on the entry at one (epoch, index) position.
	InvLogPrefix = "log-prefix"
	// InvApplyLost: a takeover election installed a log tail behind a
	// quorum-acknowledged (committed) mutation — an acked append was
	// lost across the takeover.
	InvApplyLost = "acked-append-lost"
	// InvLiveness: the run drained with ops still blocked (explorer
	// harness only; never produced by the trace checker).
	InvLiveness = "liveness"
	// InvPanic: an engine panicked while the kernel stepped; the run
	// ended there (explorer harness only).
	InvPanic = "panic"
	// InvRecord: the library's record disagreed with actual page
	// placement after quiescence (explorer harness only).
	InvRecord = "final-record-agreement"
	// InvIdleWord: a page was still held, or waited for, at a site with
	// no access under way — a hold never given back (post-run only).
	InvIdleWord = "page-word-idle"
	// InvIdlePage: a site's engine still tracked something for a page —
	// a blocked fault, an outstanding request or its deadline, a
	// collection or a relay — with the run drained (post-run only).
	InvIdlePage = "site-page-idle"
	// InvEventOrder: a page-state event was emitted on the wrong side of
	// the page word's flip — a raising transition after the word granted
	// the new access, or a lowering one before the holders had left
	// (simulated runs only, checked as they emit: EventOrder).
	InvEventOrder = "page-event-order"
)

// Config parameterizes the history checker.
type Config struct {
	// Sites is the cluster size; events naming sites outside [0,Sites)
	// are rejected. Zero skips the bound check.
	Sites int `json:"sites"`
	// Delta is the window granted with every page (Options.Delta /
	// ipc.Config.Delta). Zero disables the early-revocation invariant.
	// Grants do not carry Δ in the trace, so for runs with per-page or
	// dynamically tuned Δs pass a LOWER BOUND on every granted window —
	// AutoDelta runs pass AutoDelta.Min (the controller's clamp floor).
	// The invariant is one-sided sound under any under-estimate: a
	// revocation earlier than grant+bound is earlier than the true
	// window too, so every violation reported is real; only violations
	// inside [bound, trueΔ) go unreported. Hand-retuned runs
	// (SetSegmentDelta mid-run) with no known floor still need 0.
	Delta time.Duration `json:"delta"`
	// Slack is the timestamp tolerance for the window invariant. Keep 0
	// for virtual-clock traces; wall-clock traces may need a little for
	// timer coarseness.
	Slack time.Duration `json:"slack"`
	// Reliable marks a trace recorded with the reliability layer on:
	// grant cycles may abort without a commit, so a new cycle opening
	// while one is open is legal (the checker closes it implicitly).
	Reliable bool `json:"reliable"`
	// MaxViolations stops the checker after that many findings;
	// default 100.
	MaxViolations int `json:"-"`
}

// Violation is one invariant breach found in a trace.
type Violation struct {
	// Invariant is one of the Inv* names.
	Invariant string `json:"invariant"`
	// Index is the 0-based position of the offending event in the
	// checked trace, -1 for post-run findings.
	Index int `json:"index"`
	// Event is the offending event (zero for post-run findings).
	Event obs.Event `json:"event"`
	// Detail is a human-readable explanation.
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	if v.Index < 0 {
		return fmt.Sprintf("[%s] %s", v.Invariant, v.Detail)
	}
	return fmt.Sprintf("[%s] event %d (%v site=%d seg=%d page=%d t=%v): %s",
		v.Invariant, v.Index, v.Event.Type, v.Event.Site, v.Event.Seg,
		v.Event.Page, v.Event.T, v.Detail)
}

// Verify runs the history checker over a complete trace and returns
// every violation found (nil for a clean trace).
func Verify(cfg Config, events []obs.Event) []Violation {
	c := NewChecker(cfg)
	for _, ev := range events {
		c.Feed(ev)
	}
	return c.Violations()
}
