package core

import (
	"encoding/binary"
	"slices"
	"time"

	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/wire"
)

// Library-site failover (DESIGN.md §11).
//
// The paper fixes a segment's library site for life (§6.0) and leans on
// Locus for availability. Here every library mirrors its page records
// to a group of follower sites (replog.go), and when the reliability
// layer declares the library unreachable, the detecting site nominates
// a member of that group and sends it a KRecover trigger. The candidate
// bumps the segment's *library epoch* and installs the record only from
// a vote quorum of the group's logs; below quorum nothing installs, and
// the segment's faults fail with ErrUnreachable until enough of the
// group is back. Every protocol message carries the sender's idea of
// the epoch (wire.Msg.SegEpoch): messages from superseded epochs are
// rejected, which both fences in-flight traffic of the dead epoch and
// tells a deposed library that comes back that it has been replaced.
//
// Pages with no surviving copy are deliberately NOT zero-filled: the
// only good data is wherever the dead library left it, so the record
// keeps naming the dead site as writer. Grants aimed there fail fast
// (ErrUnreachable) while it is down and work again the moment it
// rejoins the new epoch; a site that rejoins and reports holdings the
// record cannot account for is reconciled by lateReport.

// Failover enables library-site takeover. It brings Options.Reliability:
// the takeover trigger is the reliable channel's give-up verdict on a
// request to the library.
type Failover struct {
	// RecoverTimeout bounds a candidate's wait for ballots and for the
	// holdings of the sites an in-flight intent involves; a voter that
	// has not answered by then leaves the election short of its quorum,
	// and a probed site that has not is taken to hold nothing. Default 2s.
	RecoverTimeout time.Duration
	// Replicas is the number of follower sites mirroring each segment's
	// record: the Replicas sites after the current library in ID order.
	// ForCluster fills in min(2, n−1).
	Replicas int
}

// recovery is a candidacy for one segment, from the epoch bump until
// the record is installed: the vote, then the holdings of the sites the
// log's in-flight intents involve.
type recovery struct {
	from    int                   // the library being replaced
	started time.Duration         // for the recovery-latency histogram
	log     replSeg               // the ballots merged: best epoch, its highest index, per-page latest entries
	due     map[int]bool          // voters, or once probing the probed sites, whose answer is still due
	voted   mmu.Copyset           // voters whose ballot is merged
	votes   int                   // ballots merged, the candidate's own included
	stalled bool                  // the vote fell short: requests are denied until it does not
	probing bool                  // the vote is in and the intents' sites are asked
	held    map[int32]int         // per page, the probed site that reported the writable copy
	copies  map[int32]mmu.Copyset // per page, the probed sites that reported any copy
	replied mmu.Copyset           // the probed sites whose report is in, this one's included
	// Library-bound messages (new-epoch requests from sites that
	// already adopted) buffered until the record is installed.
	buffered []*wire.Msg
	cancel   func() // RecoverTimeout timer
	// offer is set when the role arrives by migration: the old library's
	// exact record, installed once the vote grants the epoch.
	offer *libSource
}

// armRecovery (re)starts the takeover's timeout: fn runs when it
// expires. Whatever ends the takeover first disarms it.
func (e *Engine) armRecovery(sn *segNode, rc *recovery, fn func(*segNode)) {
	rc.disarm()
	rc.cancel = e.after(sn, e.rehomeTimeout, func() { fn(sn) })
}

func (rc *recovery) disarm() {
	if rc.cancel != nil {
		rc.cancel()
		rc.cancel = nil
	}
}

// Holdings-report record layout: 5 bytes per held page — the page
// number and a state byte — packed into KRecoverReply.Data.
const (
	recRead  = 1 << 0 // site holds a read copy
	recWrite = 1 << 1 // site holds the writable copy

	holdingBytes = 4 + 1
)

// triggerFailover nominates a member of the unreachable library's group
// and sends it a KRecover trigger. tried accumulates candidates already
// attempted (the trigger itself may be undeliverable); it returns false
// when no member remains and the caller should fail the access.
func (e *Engine) triggerFailover(sn *segNode, seg int32, tried mmu.Copyset) bool {
	for _, cand := range e.replFollowers(sn.curLib) {
		if tried.Has(cand) {
			continue
		}
		e.count(obs.CFailover)
		e.emit(obs.Event{Type: obs.EvFailover, Seg: seg, From: int32(sn.curLib), To: int32(cand)})
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
		e.sendHoldings(sn, int(m.Req))
	case m.SegEpoch == sn.segEpoch.Load() && int(m.Req) == e.site && !m.Readers.Empty():
		// Takeover trigger: only triggerFailover stamps the tried mask,
		// so an empty Readers cannot nominate a successor. Identity
		// notices (staleEpoch, migration redirects) reuse KRecover with
		// Req naming the library the sender knows — if that happens to be
		// the receiver, treating it as a trigger would launch a crash
		// recovery against a live library.
		e.beginRecovery(sn)
		if sn.recov != nil && int(m.From) != e.site {
			// The trigger's sender learns the candidacy at once and asks
			// here: served once the record installs, denied while the vote
			// stalls — not left waiting on a library that is gone.
			e.send(int(m.From), &wire.Msg{Kind: wire.KRecover, Seg: m.Seg, Page: -1, Req: int32(e.site)})
		}
	case m.SegEpoch == sn.segEpoch.Load():
		switch {
		case int(m.Req) == int(m.From):
			// A holdings probe from a candidate of this epoch: answer it
			// whoever this site takes for the library. Reports merge
			// idempotently, and a probe that raced the epoch notice lands
			// here too.
			e.sendHoldings(sn, int(m.From))
		case int(m.Req) == e.site, int(m.From) != sn.curLib:
			// An identity notice naming this site: if we hold the role,
			// there is nothing to learn; if we do not, the sender's belief
			// and ours are both stale — drop it and let the requester-side
			// timeout backstop resolve the page. Or stale chatter from a
			// site this epoch already left behind.
		default:
			// Same-epoch identity correction: the site this site still
			// addresses as library says the role lives at Req. Happens
			// when the epoch was adopted blind (adoptAhead learns the
			// number, not the identity) after a voluntary migration, which
			// broadcasts nothing. Re-aim outstanding requests at the
			// successor the deposed library names.
			sn.curLib, sn.blind = int(m.Req), false
			e.resetPages(sn, true, false)
			e.wakeAll(sn)
		}
	case int(m.From) != e.site:
		// A trigger or notice from a superseded epoch: its sender has not
		// heard of the takeover yet. Tell it.
		e.staleEpoch(sn, m)
	}
}

// beginRecovery starts the takeover at the nominated member of the dead
// library's group: bump the epoch, claim the library role, and run the
// election (beginElection). Granting resumes in installLibrary, and only
// once a vote quorum answered.
func (e *Engine) beginRecovery(sn *segNode) {
	if e.failover == nil || sn.lib != nil || sn.recov != nil || sn.curLib == e.site ||
		sn.blind || !slices.Contains(e.replFollowers(sn.curLib), e.site) {
		// Already the library, a takeover is running, or not this site's
		// to run: only a member of the library's group may stand, and only
		// if it knows which library that is — a group asked by mistake
		// need not have heard of what the library committed.
		return
	}
	e.candidacy(sn, nil)
}

// candidacy makes this site the candidate for the epoch after the
// current one — epoch bumped, role claimed, the replaced library's
// requests and this site's clock-side collections forgotten, and the
// blocked faults woken to ask here — and runs the election. The
// collections roll back now, before this site's holdings are read, so
// a copy it had invalidated for a cycle the epoch killed is reported
// like any survivor's (adoptEpoch does the same at every other site).
func (e *Engine) candidacy(sn *segNode, offer *libSource) {
	rc := &recovery{from: sn.curLib, started: e.env.Now(), due: make(map[int]bool),
		held: make(map[int32]int), copies: make(map[int32]mmu.Copyset), offer: offer}
	sn.segEpoch.Add(1)
	sn.curLib, sn.recov = e.site, rc
	e.resetPages(sn, true, true)
	e.wakeAll(sn) // to re-request here: served, or denied, with everyone's
	e.beginElection(sn, rc)
}

// queryHoldings merges this site's own holdings, sends the holdings
// query to the sites asked (never this one or the replaced library) and
// arms the report timeout; recovery finishes immediately when there is
// nobody to ask.
func (e *Engine) queryHoldings(sn *segNode, rc *recovery, ask mmu.Copyset) {
	rc.merge(e.site, e.localHoldings(sn))
	ask.Remove(e.site).Remove(rc.from).ForEach(func(s int) {
		rc.due[s] = true
		e.send(s, &wire.Msg{Kind: wire.KRecover, Seg: int32(sn.meta.ID), Page: -1, Req: int32(e.site)})
	})
	if len(rc.due) == 0 {
		e.finishRecovery(sn)
		return
	}
	e.armRecovery(sn, rc, e.finishRecovery)
}

// recovPeerDone marks one probed site done — its report merged, or the
// site unreachable or never attached, so that its copies, if any, stay
// as the log names them — and finishes recovery when none remains due.
func (e *Engine) recovPeerDone(sn *segNode, s int) {
	rc := sn.recov
	if rc == nil || !rc.probing || !rc.due[s] {
		e.markStale()
		return
	}
	delete(rc.due, s)
	if len(rc.due) == 0 {
		e.finishRecovery(sn)
	}
}

// finishRecovery installs what the candidacy obtained: every awaited
// probe report is in, or the sites still silent keep the copies the
// log names.
func (e *Engine) finishRecovery(sn *segNode) {
	rc := sn.recov
	src := e.logSource(sn, rc)
	if rc.offer != nil {
		src = *rc.offer
	}
	if err := e.installLibrary(sn, src); err != nil {
		// A log that names pages or sites that do not exist proves
		// nothing: serve no request from it.
		e.markStale()
		e.stallElection(sn)
	}
}

// handleRecoverReply takes one site's holdings report. During recovery
// it answers a probe; at an established library it is a late report
// from a site that just rejoined the epoch (see lateReport). Either way
// only a complete report counts: the reclaim sweep reads absence from
// it.
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
	switch hs, rc := e.decodeHoldings(sn, data), sn.recov; {
	case sn.lib != nil:
		e.lateReport(sn, from, hs)
	case rc != nil && rc.probing && rc.due[from]:
		rc.merge(from, hs)
		e.recovPeerDone(sn, from)
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
	sn.curLib, sn.blind = newLib, false
	// If this site WAS the library it is deposed: a successor took the
	// role, by election or by the offer this site made, and the
	// successor's record is authoritative now. The requests still queued
	// here are the successor's to serve: their requesters are told where
	// it is (releasing sites re-issue from their own releasing path).
	if lib := sn.lib; lib != nil {
		var notify mmu.Copyset
		for pg := range lib.pages {
			for _, r := range lib.pages[pg].queue {
				if r.site != e.site {
					notify = notify.Add(r.site)
				}
			}
		}
		notify.ForEach(func(s int) {
			e.send(s, &wire.Msg{Kind: wire.KRecover, Seg: int32(sn.meta.ID), Page: -1, Req: int32(newLib)})
		})
	}
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
	if mig := sn.migOut; mig != nil {
		// An outbound migration offer committed (the successor's ack, or
		// a voter that already heard of the successor's epoch) or
		// superseded by a higher epoch.
		if newLib == mig.target {
			e.obs.Observe(obs.HMigrateLatency, int64(e.env.Now()-mig.started))
		}
		if mig.cancel != nil {
			mig.cancel()
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
	e.send(int(m.From), &wire.Msg{Kind: wire.KRecover, Seg: m.Seg, Page: -1, Req: int32(sn.curLib)})
}

// adoptAhead handles a non-KRecover message stamped with an epoch this
// site has not adopted yet (the query is in flight on another circuit).
// Library-origin kinds identify the new library directly; for the rest
// the epoch number advances now, blind, and the identity follows with
// the query or the next library message.
func (e *Engine) adoptAhead(sn *segNode, m *wire.Msg) {
	switch m.Kind {
	case wire.KInval, wire.KAddReader, wire.KAlready, wire.KDenied,
		wire.KClockHandoff, wire.KReleaseDone, wire.KAppend, wire.KVote:
		// Library-origin kinds; a KVote ahead of our epoch comes from a
		// candidate, which is the library of the epoch it asks for.
		e.adoptEpoch(sn, m.SegEpoch, int(m.From))
	default:
		e.adoptEpoch(sn, m.SegEpoch, sn.curLib)
		sn.blind = true
	}
}

// holding is one decoded holdings-report record.
type holding struct {
	page  int32
	state byte
}

// localHoldings reports this site's present pages for the segment.
func (e *Engine) localHoldings(sn *segNode) []holding {
	var hs []holding
	for p := 0; p < sn.m.Pages(); p++ {
		if !sn.m.Present(p) {
			continue
		}
		st := byte(recRead)
		if sn.m.Prot(p) == mmu.ReadWrite {
			st = recWrite
		}
		hs = append(hs, holding{page: int32(p), state: st})
	}
	return hs
}

// sendHoldings ships this site's holdings to the site that asked.
func (e *Engine) sendHoldings(sn *segNode, to int) {
	hs := e.localHoldings(sn)
	tmpl := wire.Msg{Kind: wire.KRecoverReply, Seg: int32(sn.meta.ID), Page: -1}
	e.sendChunked(to, tmpl, nil, len(hs), func(m *wire.Msg, i int) {
		m.Data = binary.BigEndian.AppendUint32(m.Data, uint32(hs[i].page))
		m.Data = append(m.Data, hs[i].state)
	})
}

// decodeHoldings parses a report, discarding malformed or
// out-of-range records rather than trusting the wire.
func (e *Engine) decodeHoldings(sn *segNode, data []byte) []holding {
	var hs []holding
	for ; len(data) >= holdingBytes; data = data[holdingBytes:] {
		h := holding{page: int32(binary.BigEndian.Uint32(data)), state: data[4]}
		if h.page >= 0 && int(h.page) < sn.m.Pages() && h.state&(recRead|recWrite) != 0 {
			hs = append(hs, h)
		}
	}
	return hs
}

// merge folds one probed site's report into the probe state.
func (rc *recovery) merge(site int, hs []holding) {
	rc.replied = rc.replied.Add(site)
	for _, h := range hs {
		rc.copies[h.page] = rc.copies[h.page].Add(site)
		if h.state&recWrite != 0 {
			rc.held[h.page] = site
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
