package mirage

import (
	"fmt"
	"time"

	"mirage/internal/check"
)

// Violation is one coherence-invariant breach found in a trace: which
// invariant, the offending event, and why. See internal/check for the
// invariant catalogue (single-writer exclusion, write serialization,
// read-latest-write, valid-copy, Δ-window possession, exactly-once
// grants).
type Violation = check.Violation

// CheckConfig parameterizes trace verification. The zero value checks
// everything except the Δ-window invariant (Delta 0 disables it, since
// the window length is not recorded in the trace).
type CheckConfig = check.Config

// VerifyTrace runs the coherence checker over a recorded event trace
// (TraceBuffer events, or a trace re-read from JSONL) and returns every
// invariant violation found; nil means the trace is coherent. Traces
// recorded with Options.Check additionally carry per-access op events,
// enabling the read-latest-write oracle; without them the protocol
// invariants are still checked.
func VerifyTrace(cfg CheckConfig, events []TraceEvent) []Violation {
	return check.Verify(cfg, events)
}

// liveCheckSlack is the window-invariant timestamp tolerance applied to
// wall-clock traces by Cluster.VerifyTrace: live timers and event
// emission both run on real schedulers, so possession boundaries can
// appear a few milliseconds off from timer truth. The simulator's
// virtual-clock traces need no slack.
const liveCheckSlack = 25 * time.Millisecond

// CheckConfig is the configuration VerifyTrace checks the cluster's
// trace with, derived from its options as a simulated cluster's is —
// the site count; Options.Delta, or AutoDelta.Min with the controller
// on, which bounds every window it clamps; whether the reliability
// layer, set or brought by another layer, lets a grant cycle abort —
// plus the wall-clock slack.
//
// Caveat: the window bound assumes the uniform Options.Delta; if the
// run retuned windows with SetSegmentDelta, verify with an explicit
// config (Delta 0 disables the window invariant) via the package-level
// VerifyTrace instead.
func (c *Cluster) CheckConfig() CheckConfig { return c.checkCfg }

// VerifyTrace checks the cluster's own trace buffer against the
// coherence invariants with CheckConfig. It is valid while the cluster
// is running or after Close.
func (c *Cluster) VerifyTrace() ([]Violation, error) {
	if c.opts.Obs == nil {
		return nil, fmt.Errorf("mirage: VerifyTrace requires Options.Obs")
	}
	buf := c.opts.Obs.Buffer()
	if buf == nil {
		return nil, fmt.Errorf("mirage: VerifyTrace requires the Obs tracer to be a trace buffer (mirage.NewObs())")
	}
	if buf.Dropped() > 0 {
		return nil, fmt.Errorf("mirage: trace buffer dropped %d events; verification would be unsound", buf.Dropped())
	}
	return check.Verify(c.checkCfg, buf.Events()), nil
}
