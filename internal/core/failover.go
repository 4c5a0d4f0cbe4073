package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/wire"
)

// Library-site failover (DESIGN.md §11).
//
// The paper fixes a segment's library site for life (§6.0) and leans on
// Locus for availability; here, when the reliability layer declares the
// library unreachable, the detecting site nominates a successor — the
// next site after the dead library in ID order — and sends it a
// KRecover trigger. The successor bumps the segment's *library epoch*,
// rebuilds the authoritative record by querying every surviving site
// for its page holdings, and resumes granting. Every protocol message
// carries the sender's idea of the epoch (wire.Msg.SegEpoch): messages
// from superseded epochs are rejected, which both fences in-flight
// traffic of the dead epoch and tells a deposed library that comes back
// that it has been replaced.
//
// Pages with no surviving copy are deliberately NOT zero-filled: the
// only good data is wherever the dead library left it, so the record
// keeps naming the dead site as writer. Grants aimed there fail fast
// (ErrUnreachable) while it is down and work again the moment it
// rejoins the new epoch; a site that rejoins and reports holdings the
// record cannot account for is reconciled by lateReport.

// Failover enables library-site takeover. It requires
// Options.Reliability: the takeover trigger is the reliable channel's
// give-up verdict on a request to the library.
type Failover struct {
	// RecoverTimeout bounds the successor's wait for holder reports;
	// sites that have not replied by then are treated as crashed and
	// their copies as lost. Default 2s.
	RecoverTimeout time.Duration
}

// recovery is the successor's transient takeover state for one segment.
type recovery struct {
	from    int           // the dead library being replaced
	started time.Duration // for the recovery-latency histogram
	waiting map[int]bool  // sites whose holdings report is still due
	// got accumulates, per page, what the holders reported: readers,
	// writer, the first reporter claiming the clock role, and as delta
	// the granted window of the most authoritative holder so far (rank:
	// 3 writer, 2 clock, 1 reader, 0 none). Holders are the only
	// survivors that know a tuned Δ — every install carried its grant's —
	// so the rebuild keeps it instead of clobbering it with the segment
	// default. An election reads got only to resolve in-flight intents.
	got  []libRecord
	rank []int
	// Library-bound messages (new-epoch requests from sites that
	// already adopted) buffered until the record is installed.
	buffered []*wire.Msg
	cancel   func() // RecoverTimeout timer
	// elect is non-nil when this takeover runs as a replicated-log
	// election (docs/REPLICATION.md) instead of a holder rebuild.
	elect *replElect
}

// armRecovery (re)starts the takeover's timeout: fn runs when it
// expires. Whatever ends the takeover first disarms it.
func (e *Engine) armRecovery(sn *segNode, rc *recovery, fn func(*segNode)) {
	rc.disarm()
	rc.cancel = e.after(sn, e.failover.RecoverTimeout, func() { fn(sn) })
}

func (rc *recovery) disarm() {
	if rc.cancel != nil {
		rc.cancel()
		rc.cancel = nil
	}
}

// Holdings-report record layout: 13 bytes per held page — the page
// number, a state byte, and the holder's granted window Δ — packed
// into KRecoverReply.Data. The window is what lets a takeover restore
// per-page tuned Δs: holders are the only survivors that know them
// (every install carried the grant's Δ), and the replicated log is not
// always on.
const (
	recRead  = 1 << 0 // site holds a read copy
	recWrite = 1 << 1 // site holds the writable copy
	recClock = 1 << 2 // site believes it has the clock role

	holdingBytes = 4 + 1 + 8
)

// triggerFailover nominates a successor for the segment's unreachable
// library and sends it a KRecover trigger. tried accumulates candidates
// already attempted (the trigger itself may be undeliverable); it
// returns false when no candidate remains and the caller should fall
// back to the degraded-grant path.
func (e *Engine) triggerFailover(sn *segNode, seg int32, tried mmu.Copyset) bool {
	dead, sites := sn.curLib, e.sites
	for i := 1; i < sites; i++ {
		cand := (dead + i) % sites
		if tried.Has(cand) {
			continue
		}
		e.count(obs.CFailover)
		e.emit(obs.Event{Type: obs.EvFailover, Seg: seg, From: int32(dead), To: int32(cand)})
		e.send(cand, &wire.Msg{Kind: wire.KRecover, Seg: seg, Page: -1,
			Req: int32(cand), Readers: tried.Add(cand)})
		return true
	}
	return false
}

// handleRecover dispatches the three uses of KRecover: a takeover
// trigger (Req names this site, same epoch), a holdings query from a
// recovering successor (higher epoch, From == Req), and a stale-epoch
// notice (higher epoch, Req names the library that sender knows).
func (e *Engine) handleRecover(sn *segNode, m *wire.Msg) {
	switch {
	case m.SegEpoch > sn.segEpoch.Load():
		e.adoptEpoch(sn, m.SegEpoch, int(m.Req))
		e.sendHoldings(sn)
	case m.SegEpoch == sn.segEpoch.Load() && int(m.Req) == e.site && !m.Readers.Empty():
		// Takeover trigger: only triggerFailover stamps the tried mask,
		// so an empty Readers cannot nominate a successor. Identity
		// notices (staleEpoch, migration redirects) reuse KRecover with
		// Req naming the library the sender knows — if that happens to be
		// the receiver, treating it as a trigger would launch a crash
		// recovery against a live library.
		e.beginRecovery(sn)
	case m.SegEpoch == sn.segEpoch.Load():
		switch {
		case int(m.Req) == e.site:
			// An identity notice naming this site. If we hold the role,
			// there is nothing to learn; if we do not, the sender's belief
			// and ours are both stale — drop it and let the requester-side
			// timeout backstop resolve the page.
		case int(m.From) != sn.curLib:
			// Stale chatter from a site this epoch already left behind.
		case int(m.Req) == int(m.From):
			// A query that raced another new-epoch message which already
			// moved us forward: (re-)report. Reports merge idempotently.
			e.sendHoldings(sn)
		case int(m.Req) != e.site:
			// Same-epoch identity correction: the site this site still
			// addresses as library says the role lives at Req. Happens
			// when the epoch was adopted blind (adoptAhead learns the
			// number, not the identity) after a voluntary migration, which
			// broadcasts nothing. Re-aim outstanding requests at the
			// successor the deposed library names.
			sn.curLib = int(m.Req)
			e.resetPages(sn, true, false)
			e.wakeAll(sn)
		}
	default:
		e.markStale() // trigger or notice from a superseded epoch
	}
}

// beginRecovery starts the takeover at the nominated successor: bump
// the epoch, claim the library role, and obtain the record — from the
// group's logs if this site mirrors the dead library's, else from every
// surviving site's holdings. Granting resumes in installLibrary.
func (e *Engine) beginRecovery(sn *segNode) {
	if sn.lib != nil || sn.recov != nil || sn.curLib == e.site {
		return // already the library, or a takeover is running
	}
	dead := sn.curLib
	sn.segEpoch.Add(1)
	sn.curLib = e.site
	rc := &recovery{
		from:    dead,
		started: e.env.Now(),
		waiting: make(map[int]bool),
		got:     make([]libRecord, sn.m.Pages()),
		rank:    make([]int, sn.m.Pages()),
	}
	for pg := range rc.got {
		rc.got[pg] = freshRecord(sn.meta, pg)
	}
	sn.recov = rc
	// Requests aimed at the dead library are dead with it; blocked
	// faults re-issue against this site once the record is installed.
	// So are this site's own clock-side collections: roll them back now,
	// before its holdings are read, so a copy it had invalidated for a
	// cycle the crash killed is reported like any survivor's (adoptEpoch
	// does the same at every other site before it reports).
	e.resetPages(sn, true, true)
	if e.replication != nil && e.replGroupHas(dead, e.site) {
		// This site mirrors the dead library's log: run an election and
		// install from the merged log tail instead of interrogating every
		// holder (docs/REPLICATION.md). Falls back to the holder rebuild
		// if the vote quorum cannot be reached.
		e.beginElection(sn, rc)
		return
	}
	e.queryHoldings(sn, rc, e.everySite())
}

// queryHoldings merges this site's own holdings, sends the holdings
// query to the sites asked (never this one or the dead library) and
// arms the report timeout; recovery finishes immediately when there is
// nobody to ask.
func (e *Engine) queryHoldings(sn *segNode, rc *recovery, ask mmu.Copyset) {
	rc.merge(e.site, e.localHoldings(sn))
	ask.Remove(e.site).Remove(rc.from).ForEach(func(s int) {
		rc.waiting[s] = true
		e.send(s, &wire.Msg{Kind: wire.KRecover, Seg: int32(sn.meta.ID), Page: -1, Req: int32(e.site)})
	})
	if len(rc.waiting) == 0 {
		e.finishRecovery(sn)
		return
	}
	e.armRecovery(sn, rc, e.finishRecovery)
}

// everySite is the set a holder rebuild has to ask.
func (e *Engine) everySite() mmu.Copyset {
	var all mmu.Copyset
	for s := 0; s < e.sites; s++ {
		all = all.Add(s)
	}
	return all
}

// recovPeerDone marks one queried site's report complete (or the site
// itself unreachable) and finishes recovery when none remain.
func (e *Engine) recovPeerDone(sn *segNode, s int) {
	rc := sn.recov
	if rc == nil || !rc.waiting[s] {
		return
	}
	delete(rc.waiting, s)
	if len(rc.waiting) == 0 {
		e.finishRecovery(sn)
	}
}

// finishRecovery installs what the takeover obtained: every awaited
// report is in, or the sites still silent are treated as crashed and
// their copies as lost.
func (e *Engine) finishRecovery(sn *segNode) {
	rc := sn.recov
	if rc == nil {
		return
	}
	src := e.holderSource(sn, rc)
	if rc.elect != nil {
		src = e.logSource(sn, rc)
	}
	if err := e.installLibrary(sn, src); err != nil {
		if rc.elect == nil {
			// Reports are merged by page and sender, both checked on arrival.
			panic(fmt.Sprintf("core: site %d: holder rebuild: %v", e.site, err))
		}
		// A log that names pages or sites that do not exist proves
		// nothing: ask the holders instead.
		e.markStale()
		e.electionFallback(sn)
	}
}

// holderSource is the first rehoming source (DESIGN.md §11.2): the
// record as the surviving holders reported it. It is not exact — a
// crash can interrupt a cycle anywhere — and a page nobody reported
// stays as freshRecord left it, for installLibrary to orphan.
func (e *Engine) holderSource(sn *segNode, rc *recovery) libSource {
	return libSource{recs: rc.got, prev: rc.from, prevDead: true, epoch: sn.segEpoch.Load(),
		announce: func() { e.announceRecovery(sn, rc) }}
}

// announceRecovery counts and traces a completed crash takeover.
func (e *Engine) announceRecovery(sn *segNode, rc *recovery) {
	e.count(obs.CRecovery)
	e.obs.Observe(obs.HRecoverLatency, int64(e.env.Now()-rc.started))
	e.emit(obs.Event{Type: obs.EvRecover, Seg: int32(sn.meta.ID), Arg: int64(rc.from)})
}

// handleRecoverReply takes one site's holdings report. During recovery
// it feeds the record rebuild; at an established library it is a late
// report from a site that just rejoined the epoch (see lateReport).
// Either way only a complete report counts: the reclaim sweep and the
// orphan rule both read absence from it.
func (e *Engine) handleRecoverReply(sn *segNode, m *wire.Msg) {
	if m.SegEpoch != sn.segEpoch.Load() {
		e.markStale()
		return
	}
	from := int(m.From)
	if m.Page == -2 {
		// Refusal: the peer never attached the segment (see handle's
		// unknown-segment branch). As a queried holder it has nothing to
		// report; as a nominated successor it bounces the takeover to
		// the next candidate in the tried mask.
		switch {
		case sn.recov != nil && int(m.Req) == e.site:
			e.recovPeerDone(sn, from)
		case sn.recov == nil && sn.lib == nil && int(m.Req) == from:
			e.triggerFailover(sn, m.Seg, m.Readers)
		}
		return
	}
	data, whole := sn.reassemble(m, 0)
	if !whole {
		return
	}
	hs := e.decodeHoldings(sn, data)
	switch {
	case sn.recov != nil:
		sn.recov.merge(from, hs)
		e.recovPeerDone(sn, from)
	case sn.lib != nil:
		e.lateReport(sn, from, hs)
	default:
		e.markStale()
	}
}

// adoptEpoch moves this site into a newer library epoch: the previous
// epoch's in-flight state is dead with its library, so outstanding
// requests and their verdicts (the new library may well serve pages the
// dead one could not), clock-side collections, and (if this site WAS
// the library) the library role itself are all dropped. Local page
// copies stay put — they are reported to the new library like any
// holder's.
func (e *Engine) adoptEpoch(sn *segNode, epoch uint32, newLib int) {
	if epoch <= sn.segEpoch.Load() {
		return
	}
	sn.segEpoch.Store(epoch)
	sn.curLib = newLib
	// If this site WAS the library it is deposed: a successor recovered
	// while it was presumed dead, and the successor's record is
	// authoritative now.
	sn.lib = nil
	if sn.repl != nil {
		// Deposed as replication leader too: quorum gates die with the
		// role (their cycles are dead under the old epoch anyway). The
		// follower-side log is kept — it is this site's ballot if it is
		// ever solicited in a later election.
		sn.repl.lead = nil
	}
	if sn.recov != nil {
		// Our own takeover lost the race to a higher epoch.
		sn.recov.disarm()
		sn.recov = nil
	}
	if sn.migOut != nil {
		// An outbound migration offer superseded by a higher epoch (or
		// committed by the ack that called us): moot either way.
		if sn.migOut.cancel != nil {
			sn.migOut.cancel()
		}
		sn.migOut = nil
	}
	e.resetPages(sn, true, true)
	if sn.releasing() {
		// In-flight releases died with the old epoch (their eventual
		// give-up is fenced by the epoch guard in deliveryFailed, and a
		// deposed library dropped any it had queued): re-issue against
		// the current library for every frame still held, so the detach
		// can complete instead of waiting on confirmations that will
		// never come.
		sn.releasesPending = 0
		e.shipCopies(sn, false)
	}
	e.wakeAll(sn) // to re-request at the current library
}

// staleEpoch rejects a message from a superseded epoch and tells the
// sender which epoch is current — a deposed library that comes back
// learns of its replacement from exactly this notice.
func (e *Engine) staleEpoch(sn *segNode, m *wire.Msg) {
	e.count(obs.CStaleEpoch)
	e.send(int(m.From), &wire.Msg{
		Kind: wire.KRecover, Seg: m.Seg, Page: -1, Req: int32(sn.curLib),
	})
}

// adoptAhead handles a non-KRecover message stamped with an epoch this
// site has not adopted yet (the query is in flight on another circuit).
// Library-origin kinds identify the new library directly; for the rest
// the epoch number advances now and the identity follows with the query.
func (e *Engine) adoptAhead(sn *segNode, m *wire.Msg) {
	newLib := sn.curLib
	switch m.Kind {
	case wire.KInval, wire.KAddReader, wire.KAlready, wire.KDenied,
		wire.KClockHandoff, wire.KReleaseDone, wire.KAppend, wire.KVote:
		// Library-origin kinds; a KVote ahead of our epoch comes from an
		// election winner, which is the library of the epoch it installs.
		newLib = int(m.From)
	}
	e.adoptEpoch(sn, m.SegEpoch, newLib)
}

// holding is one decoded holdings-report record.
type holding struct {
	page   int32
	state  byte
	window time.Duration // the granted Δ this copy was installed with
}

// localHoldings reports this site's present pages for the segment.
func (e *Engine) localHoldings(sn *segNode) []holding {
	var hs []holding
	for p := 0; p < sn.m.Pages(); p++ {
		if !sn.m.Present(p) {
			continue
		}
		var st byte
		if sn.m.Prot(p) == mmu.ReadWrite {
			st = recWrite | recClock
		} else {
			st = recRead
			if !sn.m.Aux(p).ReaderMask.Empty() {
				st |= recClock
			}
		}
		hs = append(hs, holding{page: int32(p), state: st, window: sn.m.Aux(p).Window})
	}
	return hs
}

// sendHoldings ships this site's holdings to the current library.
func (e *Engine) sendHoldings(sn *segNode) {
	hs := e.localHoldings(sn)
	tmpl := wire.Msg{Kind: wire.KRecoverReply, Seg: int32(sn.meta.ID), Page: -1}
	e.sendChunked(sn.curLib, tmpl, nil, len(hs), func(m *wire.Msg, i int) {
		m.Data = binary.BigEndian.AppendUint32(m.Data, uint32(hs[i].page))
		m.Data = append(m.Data, hs[i].state)
		m.Data = binary.BigEndian.AppendUint64(m.Data, uint64(hs[i].window))
	})
}

// decodeHoldings parses a report, discarding malformed or
// out-of-range records rather than trusting the wire.
func (e *Engine) decodeHoldings(sn *segNode, data []byte) []holding {
	var hs []holding
	for ; len(data) >= holdingBytes; data = data[holdingBytes:] {
		h := holding{page: int32(binary.BigEndian.Uint32(data)), state: data[4],
			window: time.Duration(binary.BigEndian.Uint64(data[5:]))}
		if h.page >= 0 && int(h.page) < sn.m.Pages() && h.state&(recRead|recWrite) != 0 && h.window >= 0 {
			hs = append(hs, h)
		}
	}
	return hs
}

// merge folds one site's report into the rebuild state.
func (rc *recovery) merge(site int, hs []holding) {
	for _, h := range hs {
		rp := &rc.got[h.page]
		rank := 1
		if h.state&recWrite != 0 {
			rp.writer = site
			rank = 3
		} else {
			rp.readers = rp.readers.Add(site)
		}
		if h.state&recClock != 0 {
			if rp.clock < 0 {
				rp.clock = site
			}
			if rank < 2 {
				rank = 2
			}
		}
		if rank > rc.rank[h.page] {
			rp.delta, rc.rank[h.page] = h.window, rank
		}
	}
}

// lateReport reconciles a holdings report arriving outside recovery: a
// site (typically the deposed library) rejoined the epoch. Copies the
// record already accounts for stand; copies it cannot account for
// predate the failover and are ordered discarded; pages the record
// attributes to the reporter that it no longer holds are unrecoverable
// and get reclaimed (zero-filled) so they stop wedging every grant.
func (e *Engine) lateReport(sn *segNode, from int, hs []holding) {
	lib := sn.lib
	seg := int32(sn.meta.ID)
	reported := make(map[int32]bool, len(hs))
	for _, h := range hs {
		reported[h.page] = true
		p := &lib.pages[h.page]
		if p.grant.active {
			continue // never disturb a live grant cycle
		}
		switch {
		case p.writer == from:
			if h.state&recWrite == 0 {
				// The record presumed a writable copy (orphan policy)
				// but the survivor only ever read the page: demote the
				// entry so grant cycles use the right invalidation mode.
				p.writer = mmu.NoWriter
				p.readers = mmu.CopysetOf(from)
				p.clock = from
				e.send(from, &wire.Msg{
					Kind: wire.KClockHandoff, Seg: seg, Page: h.page,
					Readers: p.readers,
				})
			}
		case p.readers.Has(from):
			// Consistent read copy; nothing to do.
		default:
			e.send(from, &wire.Msg{Kind: wire.KInvalOrder, Seg: seg, Page: h.page})
		}
	}
	for pg := range lib.pages {
		p := &lib.pages[pg]
		if p.writer == from && !reported[int32(pg)] && !p.grant.active {
			e.libReclaim(sn, int32(pg), nil)
			e.libProcess(sn, int32(pg))
		}
	}
}
