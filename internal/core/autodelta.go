package core

import (
	"cmp"
	"time"

	"mirage/internal/obs"
	"mirage/internal/vaxmodel"
)

// The controller's defaults are expressed in the §7.2 scheduling
// constants: the crossover argument is about quanta and ticks, not
// absolute times.
const (
	autoTick    = vaxmodel.ClockTick
	autoQuantum = vaxmodel.Quantum
)

// Closed-loop per-page Δ tuning (DESIGN.md §16, docs/TUNING.md).
//
// The paper hand-picks Δ per workload and §7.2 shows why that is
// fragile: the denial crossover sits at Δ = quantum, and a wrong Δ
// either starves requesters (too large: every invalidation waits out a
// window nobody uses) or ping-pongs pages (too small: thrashing is
// never amortized). E16 located that crossover offline; AutoDelta
// closes the loop online. The library already sees everything the
// decision needs — it receives every KBusy denial with the remaining
// window time, and it grants every write, so it can tell alternating
// writers from a stable one. The controller runs where the grants are
// minted (libTunedDelta), so a retuned Δ rides the very next
// invalidation, replicates through the ordinary record log, and ships
// with the record on voluntary migration.
//
// Policy (AIMD hill-climb, evaluated per page at grant time, at most
// once per Cooldown and MinCycles grant cycles):
//
//   - No denials since the last adjustment: the window never bound a
//     request — no signal, no movement.
//   - Write-sharing (recent write grants alternated sites) or expensive
//     denials (remaining-at-denial EWMA above CheapDenial): the window
//     is pure added latency for the waiting side — halve Δ.
//   - Otherwise (denials present, cheap, stable writer): the holder is
//     using most of its window productively — grow Δ by Step so the
//     work amortizes the page moves (§7.2's thrash amelioration).
//
// Stability: multiplicative decrease dominates additive increase, so
// under persistent write-sharing Δ converges to Min in O(log Δ₀)
// adjustments and stays there; under mixed signals Δ oscillates within
// one Step of a fixed point instead of diverging. The clamp keeps every
// granted window inside [Min, Max], which is what keeps the checker's
// Δ-window invariant meaningful: a trace verified with Delta = Min is a
// sound lower bound on every window the controller ever granted (see
// check.Config.Delta).

// AutoDelta configures the built-in per-page Δ controller. The zero
// value is usable: it tunes within [0, 4·quantum] with tick-sized
// steps.
type AutoDelta struct {
	// Min and Max clamp every tuned Δ. Min is also the sound
	// verification bound: pass it as check.Config.Delta when checking a
	// traced AutoDelta run. Default Min 0, Max 4 scheduling quanta.
	Min time.Duration
	Max time.Duration
	// Step is the additive increment of the grow direction. Default one
	// scheduling clock tick.
	Step time.Duration
	// CheapDenial separates denials worth amortizing from denials that
	// only add latency: a denial whose remaining-window EWMA exceeds it
	// means the requester waits longer than the holder can productively
	// run before preemption. Default one scheduling quantum.
	CheapDenial time.Duration
	// MinCycles and Cooldown rate-limit adjustments: at least MinCycles
	// grant cycles and Cooldown elapsed time between retunes of one
	// page, so windows are quasi-static relative to grant traffic.
	// Defaults 4 cycles, 3 clock ticks.
	MinCycles int
	Cooldown  time.Duration
}

// autoDefault* are the paper-calibrated defaults, in terms of the
// §7.2 scheduling constants (vaxmodel: tick 16.7ms, quantum 100ms).
const (
	autoDefaultMaxQuanta = 4
	autoDefaultCooldown  = 3
)

// withDefaults fills the zero fields; ForCluster has refused a negative
// one and an inverted band.
func (a AutoDelta) withDefaults() AutoDelta {
	a.Max = cmp.Or(a.Max, autoDefaultMaxQuanta*autoQuantum)
	a.Step = cmp.Or(a.Step, autoTick)
	a.CheapDenial = cmp.Or(a.CheapDenial, autoQuantum)
	a.MinCycles = cmp.Or(a.MinCycles, 4)
	a.Cooldown = cmp.Or(a.Cooldown, autoDefaultCooldown*autoTick)
	return a
}

// flipScale is the fixed-point unit of libPage.flipEWMA: each committed
// write grant folds flipScale (writer changed) or 0 (same writer) into
// the EWMA, so flipScale/2 marks the half-the-grants-alternate line.
const flipScale = 16

// retune runs the controller for one page and returns the Δ to grant
// with, which is inside [Min, Max] whichever way it returns. Called from
// libTunedDelta, so the adjusted value lands on the invalidation of the
// very grant cycle being opened and in its replicated post-record.
func (e *Engine) retune(sn *segNode, page int32) time.Duration {
	ad := e.auto
	p := &sn.lib.pages[page]
	now := e.env.Now()
	// The stored Δ is whatever was last written — the segment default, a
	// migrated or recovered value, SetPageDelta, SetSegmentDelta — and
	// the band is decided here, before any window goes out: the checker's
	// lower bound must hold from the first granted window to the last.
	p.delta = min(max(p.delta, ad.Min), ad.Max) // ForCluster refused Max < Min
	if !p.tuned {
		// First grant under the controller at this site: start the
		// rate limiter.
		p.tuned = true
		p.tuneAt = now
		p.tuneCycle = p.cycle
		p.tuneDenied = p.denied
		return p.delta
	}
	if now-p.tuneAt < ad.Cooldown || int(p.cycle-p.tuneCycle) < ad.MinCycles {
		return p.delta
	}
	old := p.delta
	switch {
	case p.denied == p.tuneDenied:
		// The window never turned a request away this interval.
	case p.flipEWMA >= flipScale/2 || p.denRemEWMA > ad.CheapDenial:
		p.delta = max(p.delta/2, ad.Min)
	default:
		p.delta = min(p.delta+ad.Step, ad.Max)
	}
	p.tuneAt = now
	p.tuneCycle = p.cycle
	p.tuneDenied = p.denied
	if p.delta == old {
		return p.delta
	}
	if p.delta > old {
		e.count(obs.CDeltaGrow)
	} else {
		e.count(obs.CDeltaShrink)
	}
	e.obs.Observe(obs.HTunedDelta, int64(p.delta))
	e.emit(obs.Event{Type: obs.EvRetune, Seg: int32(sn.meta.ID), Page: page,
		Cycle: p.cycle, Arg: int64(p.delta)})
	return p.delta
}
