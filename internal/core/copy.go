package core

import (
	"time"

	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/wire"
)

// The copy: every change to a page's protection at a site, and to the
// auxpte beside it (paper Table 2: writer, reader mask, window), is one
// of the functions below, and nothing else in the package calls the
// mmu.Seg transitions (CI greps for it). Each one writes the auxpte once
// and traces the page's new state on the side of the word flip the live
// checker's soundness rests on (DESIGN.md §17): a raising transition
// emits its EvPageState before the word publishes the new access, so the
// event precedes every access the grant lets in; a lowering one emits
// after the holders have left, so it follows every access the old grant
// let in. check.InvEventOrder holds the simulator to that order.

// setAux writes a page's auxpte: writer, reader mask and window.
func (sn *segNode) setAux(p int, writer int, mask mmu.Copyset, window time.Duration) {
	a := sn.m.Aux(p)
	a.Writer, a.ReaderMask = writer, mask
	sn.m.SetWindow(p, window)
}

// install maps a copy at this site: a granted page, a page the library
// reclaims, a segment's creation and a clock's rollback. A copy already
// there is stale and the incoming one replaces it. The window is set
// before the word publishes, so the first accessor sees this grant's
// windowed bit and not the previous one's.
func (e *Engine) install(sn *segNode, page int32, data []byte, prot mmu.Prot, mask mmu.Copyset,
	window time.Duration, cycle uint32) {
	p := int(page)
	ev := obs.Event{Type: obs.EvPageState, Seg: int32(sn.meta.ID), Page: page, Cycle: cycle, Arg: int64(prot)}
	if !MutateEventAfterWord {
		e.emit(ev)
	}
	if sn.m.Present(p) {
		sn.m.Invalidate(p)
	}
	writer := mmu.NoWriter
	if prot == mmu.ReadWrite {
		writer = e.site
	}
	sn.setAux(p, writer, mask, window)
	sn.m.Install(p, data, prot, e.env.Now())
	if MutateEventAfterWord {
		e.emit(ev)
	}
}

// upgrade makes this site's read copy writable in place (optimization
// 1), at a requester granted it and at a clock site upgrading itself,
// and completes the requester's end of the grant.
func (e *Engine) upgrade(sn *segNode, page int32, window time.Duration, cycle uint32) {
	p := int(page)
	seg := int32(sn.meta.ID)
	sn.setAux(p, e.site, mmu.Copyset{}, window)
	e.count(obs.CUpgrade)
	e.emit(obs.Event{Type: obs.EvUpgrade, Seg: seg, Page: page, Cycle: cycle})
	e.emit(obs.Event{Type: obs.EvPageState, Seg: seg, Page: page, Arg: 2})
	sn.m.Upgrade(p, e.env.Now())
	e.installed(sn, page, wire.Write, cycle)
}

// downgrade makes the writer's copy read-only, retaining it
// (optimization 2), and leaves this site the clock of mask. Mid-release
// the surrender was already traced when the copy shipped home; the frame
// survives only to serve this cycle (local access faults until
// release-done frees it). Once the library drains the queued release it
// stops invalidating this site, so tracing a retained read copy here
// would leave a phantom holder coexisting with later writers.
func (e *Engine) downgrade(sn *segNode, page int32, mask mmu.Copyset, window time.Duration, cycle uint32) {
	p := int(page)
	seg := int32(sn.meta.ID)
	sn.m.Downgrade(p, e.env.Now())
	e.count(obs.CDowngrade)
	if !sn.releasing() {
		e.emit(obs.Event{Type: obs.EvDowngrade, Seg: seg, Page: page, Cycle: cycle})
		e.emit(obs.Event{Type: obs.EvPageState, Seg: seg, Page: page, Arg: 1})
	}
	sn.setAux(p, mmu.NoWriter, mask, window)
}

// drop discards this site's copy, if it has one, and forgets the page's
// writer and readers: an invalidation order, the clock's share of a
// write collection, a degraded request giving up a read copy, and a
// release confirmed. It returns the frame, for a caller that ships it
// on. trace is false only for the confirmed release, whose surrender was
// traced when the copy shipped home.
func (e *Engine) drop(sn *segNode, page int32, cycle uint32, trace bool) (frame []byte) {
	p := int(page)
	if sn.m.Present(p) {
		frame = sn.m.Invalidate(p)
		if trace {
			e.emit(obs.Event{Type: obs.EvPageState, Seg: int32(sn.meta.ID), Page: page, Cycle: cycle})
		}
	}
	sn.setAux(p, mmu.NoWriter, mmu.Copyset{}, 0)
	return frame
}

// reinstate rolls a clock site back to where a write collection found
// it: its read copy (reinstalled from the captured frame if it gave the
// copy up) with no window, and the reader mask it had. It reports false
// when there is nothing to roll back with.
func (e *Engine) reinstate(sn *segNode, page int32, pi *pendingInval) bool {
	p := int(page)
	switch {
	case sn.m.Present(p):
		// The clock kept its copy: it was upgrading itself.
		sn.setAux(p, mmu.NoWriter, pi.origMask, 0)
	case pi.data == nil:
		return false
	default:
		// No Cycle: the rolled-back copy carries no window, and the checker
		// keys window grants on Cycle != 0.
		e.install(sn, page, pi.data, mmu.ReadOnly, pi.origMask, 0, 0)
	}
	return true
}

// installed is the requester's end of a grant that landed here: the
// library hears the cycle is complete, the requests it answered stop
// being outstanding, a degraded-grant verdict still cached for the page
// is dropped — without this an access after the peer heals would fail
// with the stale error instead of using the copy — and the blocked
// faults recheck.
func (e *Engine) installed(sn *segNode, page int32, mode wire.Mode, cycle uint32) {
	e.send(sn.curLib, &wire.Msg{Kind: wire.KInstalled, Mode: mode, Seg: int32(sn.meta.ID), Page: page, Cycle: cycle})
	sp := &sn.pages[page]
	sp.outR = false
	if mode == wire.Write && !MutateLeaveWriteOutstanding {
		sp.outW = false
	}
	sp.takeErr()
	sp.reqProgress()
	e.wakeWaiters(sn, page)
}
