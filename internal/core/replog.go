package core

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/wire"
)

// Quorum-replicated library records (DESIGN.md §15, docs/REPLICATION.md).
//
// With Options.Failover on, every segment's library (the leader) mirrors
// every page-record mutation to a small group of follower sites as log
// entries BEFORE the mutation's effects reach the rest of the cluster,
// and a takeover installs the record from a vote quorum of the group's
// logs (failover.go). The log term is the per-segment library epoch: a
// takeover bumps it, and the same epoch fence that isolates a dead
// library's traffic isolates a dead leader's stream.
//
// Safety hinges on WHEN an entry is written relative to the mutation it
// describes. Grant cycles log a write-ahead *intent* (prior and post
// record) and hold the cycle's opening send until a quorum of the group
// acknowledged the intent: recording behind the mutation could elect a
// record that never heard of a granted writer (two writers — unsafe),
// while recording ahead only risks a *ghost* — a record naming holders
// the crash prevented from materializing — which every holder path
// already degrades around (a KInval at an absent page answers
// KGrantFail, a stale reader entry acks invalidation orders vacuously).
// A gate whose quorum cannot form holds its cycle: the leader grants
// nothing the group has not heard of. Completed cycles, reclaims and Δ
// retunes log a *set* entry carrying the committed record, and releases
// wait for theirs. Entries are full per-page snapshots, so both ends
// compact the log to the latest entry per page — no unbounded log, and
// a vote reply is at most one entry per page.
//
// A vote is a promise: a site answers a solicitation for epoch E only
// from the site it knows as E's library — adopting E from the
// solicitation makes the solicitor that site — and a candidate knows
// itself. Any two vote quorums of a group share a member, so no two
// sites install the same epoch; a migration draws its epoch the same way.

// replFollowers returns the follower group for a segment led by
// leader: the Replicas sites after it in ID order.
func (e *Engine) replFollowers(leader int) []int {
	var out []int
	for i := 1; len(out) < e.failover.Replicas && i < e.sites; i++ {
		out = append(out, (leader+i)%e.sites)
	}
	return out
}

// replQuorum is the number of group members (leader counts itself)
// whose applied log must cover an intent before its cycle opens: a
// majority of leader + Replicas followers.
func (e *Engine) replQuorum() int {
	return (e.failover.Replicas+1)/2 + 1
}

// replVoteQuorum is the number of followers' logs (the candidate's own
// included when it is one) an election must merge before installing:
// sized so any vote set intersects any commit set in at least one
// surviving follower, and any two vote sets in one.
func (e *Engine) replVoteQuorum() int {
	return e.failover.Replicas + 2 - e.replQuorum()
}

// replEntry is one log entry: a full snapshot of one page's record
// (libRecord.logged; post.page names the page), so per-page
// latest-entry compaction loses nothing. A KMigrate offer is exactly a
// compacted log head with the tuning state attached.
type replEntry struct {
	intent bool      // write-ahead intent (prior valid) vs committed set
	index  uint32    // position in the leader's log for this epoch
	post   libRecord // the record the mutation commits
	prior  libRecord // the record before the cycle (intents only)
}

// replSeg is a site's replication state for one segment: the compacted
// log (per-page latest entries) that doubles as the leader's own log
// view and a follower's ballot, plus — at the leader only — the group
// bookkeeping.
type replSeg struct {
	epoch     uint32 // log term: the SegEpoch the entries were written under
	lastIndex uint32 // highest index applied (cumulative-ack value)
	pages     map[int32]*replEntry
	lead      *replLead // non-nil while this site leads the group
}

// replLead is the leader's group bookkeeping.
type replLead struct {
	followers []int
	acked     map[int]uint32 // per-follower cumulative applied index
	based     map[int]bool   // followers holding this epoch's base snapshot
	gates     []*replGate
}

// replGate is one intent awaiting quorum; release opens the gated
// cycle (or lets a release confirmation go).
type replGate struct {
	index   uint32
	page    int32
	digest  uint32
	started time.Duration
	release func()
}

// replActive reports whether this site is currently gating mutations
// through a live replication group for the segment.
func (e *Engine) replActive(sn *segNode) bool {
	return sn.repl != nil && sn.repl.lead != nil && len(sn.repl.lead.followers) > 0
}

// replSeedLeader makes this site the segment's log leader for the
// current epoch: one set entry per page (indexes 1..P) snapshotting
// the just-installed record, so the epoch's log is complete from entry
// one, shipped to every follower at once — a member that has not
// attached the segment keeps it all the same (looseLog).
func (e *Engine) replSeedLeader(sn *segNode) {
	rl := &replSeg{epoch: sn.segEpoch.Load(), pages: make(map[int32]*replEntry, len(sn.lib.pages))}
	for pg := range sn.lib.pages {
		rl.pages[int32(pg)] = &replEntry{index: uint32(pg + 1), post: sn.lib.pages[pg].logged()}
	}
	rl.lastIndex = uint32(len(sn.lib.pages))
	rl.lead = &replLead{
		followers: e.replFollowers(e.site),
		acked:     make(map[int]uint32),
		based:     make(map[int]bool),
	}
	sn.repl = rl
	for _, f := range rl.lead.followers {
		e.replSendLog(sn, f)
		rl.lead.based[f] = true
	}
}

// ---- Entry wire form ----
//
// Inside KAppend.Data (and after the 8-byte ballot header of a KVote
// reply) entries are self-delimiting and batchable:
//
//	kind u8 (1 intent, 2 set) | index u32 | page i32 | post record | [prior record]
//
// with each record in appendRecord's core form. The 32-bit FNV-1a
// digest of an entry's encoded bytes is its identity in EvReplicate
// events; leader and follower compute it over the identical bytes, so
// the checker can pin log-prefix agreement without shipping the entries
// in the trace.
const (
	replKindIntent = 1
	replKindSet    = 2
	replEntryHdr   = 1 + 4 + 4
)

func encodeReplEntry(buf []byte, ent *replEntry) []byte {
	kind := byte(replKindSet)
	if ent.intent {
		kind = replKindIntent
	}
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint32(buf, ent.index)
	buf = binary.BigEndian.AppendUint32(buf, uint32(ent.post.page))
	buf = appendRecord(buf, &ent.post, false)
	if ent.intent {
		buf = appendRecord(buf, &ent.prior, false)
	}
	return buf
}

// decodeReplEntry decodes one entry from the head of data, returning
// the bytes consumed (the digest input).
func decodeReplEntry(data []byte) (replEntry, int, error) {
	if len(data) < replEntryHdr {
		return replEntry{}, 0, fmt.Errorf("repl: entry truncated at %d bytes", len(data))
	}
	if data[0] != replKindIntent && data[0] != replKindSet {
		return replEntry{}, 0, fmt.Errorf("repl: unknown entry kind %d", data[0])
	}
	ent := replEntry{intent: data[0] == replKindIntent, index: binary.BigEndian.Uint32(data[1:])}
	page := int32(binary.BigEndian.Uint32(data[5:]))
	recs := []*libRecord{&ent.post}
	if ent.intent {
		recs = append(recs, &ent.prior)
	}
	n := replEntryHdr
	for _, rec := range recs {
		r, c, err := decodeRecord(data[n:], false)
		if err != nil {
			return replEntry{}, 0, err
		}
		*rec = r
		rec.page = page
		n += c
	}
	return ent, n, nil
}

// replDigest is the 32-bit FNV-1a digest of an entry's encoded bytes.
func replDigest(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// ---- Leader: appending and gating ----

// replAppend appends one entry to the leader's log and streams it to
// the followers. A non-nil cont is gated on the group quorum
// acknowledging the entry; a nil cont is fire-and-forget: the entry
// replicates but nothing waits on it.
func (e *Engine) replAppend(sn *segNode, ent *replEntry, cont func()) {
	if !e.replActive(sn) {
		if cont != nil {
			cont()
		}
		return
	}
	rl, ld := sn.repl, sn.repl.lead
	rl.lastIndex++
	ent.index = rl.lastIndex
	rl.epoch = sn.segEpoch.Load()
	rl.pages[ent.post.page] = ent
	enc := encodeReplEntry(nil, ent)
	dig := replDigest(enc)
	e.count(obs.CAppend)
	seg := int32(sn.meta.ID)
	for _, f := range ld.followers {
		if ld.based[f] { // one the channel gave up on waits for replRetry
			e.send(f, &wire.Msg{Kind: wire.KAppend, Seg: seg, Page: ent.post.page, Cycle: ent.index, Data: enc})
		}
	}
	if cont == nil {
		return
	}
	g := &replGate{index: ent.index, page: ent.post.page, digest: dig, started: e.env.Now(), release: cont}
	ld.gates = append(ld.gates, g)
	e.replRecomputeGates(sn)
	e.replRetry(sn) // the gate may be the first to wait on followers given up on
}

// entries returns the log's entries in index order (a follower's
// applied-index stream must ascend).
func (rl *replSeg) entries() []*replEntry {
	var ents []*replEntry
	for _, ent := range rl.pages {
		ents = append(ents, ent)
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].index < ents[j].index })
	return ents
}

// replSendLog ships the leader's whole compacted log to one follower:
// a snapshot (Page -1), each chunk stamped with its last index.
func (e *Engine) replSendLog(sn *segNode, f int) {
	ents := sn.repl.entries()
	tmpl := wire.Msg{Kind: wire.KAppend, Seg: int32(sn.meta.ID), Page: -1}
	e.sendChunked(f, tmpl, nil, len(ents), func(m *wire.Msg, i int) {
		m.Data = encodeReplEntry(m.Data, ents[i])
		m.Cycle = ents[i].index
	})
}

// replRecomputeGates re-evaluates every pending gate against the
// current ack state. A gate whose quorum arrived — the leader, whose own
// log covers its gates, and the followers that acknowledged its index —
// commits (EvReplicate with From == Site, the replication-lag sample,
// the counter) and releases; the others wait.
func (e *Engine) replRecomputeGates(sn *segNode) {
	ld := sn.repl.lead
	if ld == nil || len(ld.gates) == 0 {
		return
	}
	seg := int32(sn.meta.ID)
	var keep []*replGate
	for _, g := range ld.gates {
		n := 1
		for _, f := range ld.followers {
			if ld.acked[f] >= g.index {
				n++
			}
		}
		if n < e.replQuorum() {
			keep = append(keep, g)
			continue
		}
		e.count(obs.CReplCommit)
		e.obs.Observe(obs.HReplLag, int64(e.env.Now()-g.started))
		e.emit(obs.Event{Type: obs.EvReplicate, Seg: seg, Page: g.page,
			From: int32(e.site), Arg: int64(g.index), Cycle: g.digest})
		g.release()
	}
	ld.gates = keep
}

// replGateCycleOpen logs a grant cycle's write-ahead intent — the
// record as it stands and as the cycle will commit it: with the given
// writer, clock and readers — and defers the cycle's opening send to
// the quorum commit.
func (e *Engine) replGateCycleOpen(sn *segNode, page int32, to int, open *wire.Msg,
	writer, clock int, readers mmu.Copyset) {
	if !e.replActive(sn) { // no closure on the ungated path: it costs every fault an allocation
		e.send(to, open)
		return
	}
	e.replGate(sn, page, writer, clock, readers, func() { e.send(to, open) })
}

// replGate logs an intent for the page's grant cycle to end with the
// given writer, clock and readers, and runs fn at the quorum commit, or
// at once without a live group. The continuation re-checks the cycle
// (by number) first: an epoch change or abort in the gap must not act
// for a dead cycle.
func (e *Engine) replGate(sn *segNode, page int32, writer, clock int, readers mmu.Copyset, fn func()) {
	if !e.replActive(sn) {
		fn()
		return
	}
	prior := sn.lib.pages[page].logged() // the cycle commits to the record only when it finishes
	post := prior
	post.writer, post.clock, post.readers = writer, clock, readers
	cyc := sn.lib.pages[page].cycle
	e.replAppend(sn, &replEntry{intent: true, post: post, prior: prior}, func() {
		if !e.live(sn) || sn.lib == nil {
			return
		}
		if p := &sn.lib.pages[page]; p.grant.active && p.cycle == cyc {
			fn()
		}
	})
}

// replAppendSet logs a page's committed record fire-and-forget.
func (e *Engine) replAppendSet(sn *segNode, page int32) {
	if !e.replActive(sn) {
		return
	}
	e.replAppend(sn, &replEntry{post: sn.lib.pages[page].logged()}, nil)
}

// ---- Follower: applying the stream ----

// handleAppend applies a batch of log entries at a follower and
// acknowledges its cumulative applied index. The epoch fence already
// matched the message to this site's epoch; a stream from a newer term
// than the local log resets it (the leader re-bases every epoch with a
// full snapshot, so nothing carried over is needed). A snapshot (Page
// -1) applies only once all of it is here: a log reset to half a
// snapshot would be a ballot that names half the pages.
func (e *Engine) handleAppend(sn *segNode, m *wire.Msg) {
	ack := &wire.Msg{Kind: wire.KAppendAck, Seg: m.Seg, Page: m.Page, Cycle: m.Cycle, SegEpoch: m.SegEpoch}
	if mutateReplAckWithoutApply {
		// MUTATION BUILD: acknowledge the append without applying it —
		// the lie the acked-append-lost invariant exists to catch.
		e.send(int(m.From), ack)
		return
	}
	data := m.Data
	if m.Page < 0 {
		var whole bool
		if data, whole = sn.reassemble(m, 0); !whole {
			return
		}
	}
	if sn.repl == nil {
		sn.repl = &replSeg{}
	}
	err := sn.repl.absorb(m.SegEpoch, 0, data, func(ent *replEntry, enc []byte) {
		e.emitFor(sn, obs.Event{Type: obs.EvReplicate, Seg: m.Seg, Page: ent.post.page,
			From: m.From, Arg: int64(ent.index), Cycle: replDigest(enc)})
	})
	if err != nil {
		e.markStale()
	}
	ack.Cycle = sn.repl.lastIndex
	e.send(int(m.From), ack)
}

// looseLog is handle's path for a log message at a group member that
// never attached the segment: the member keeps the log and the epoch it
// promised all the same, in a segNode that holds nothing else, so its
// ballot counts toward every quorum like any member's. The epoch rule
// is the fence's: a newer epoch is adopted with the sender as its
// library, an older one is dropped. AttachSegment takes the node over.
func (e *Engine) looseLog(m *wire.Msg) {
	sn := e.loose[m.Seg]
	if sn == nil {
		sn = &segNode{curLib: int(m.From)}
		e.loose[m.Seg] = sn
	}
	if m.SegEpoch < sn.segEpoch.Load() {
		return
	}
	if m.SegEpoch > sn.segEpoch.Load() {
		sn.segEpoch.Store(m.SegEpoch)
		sn.curLib = int(m.From)
	}
	if m.Kind == wire.KAppend {
		e.handleAppend(sn, m)
	} else {
		e.handleVote(sn, m)
	}
}

// absorb folds entries written under epoch into the log, the one rule
// a follower's stream and an election's ballots share: a newer epoch
// replaces the log wholesale (every epoch starts from a full snapshot,
// so nothing carried over is needed), an older one adds nothing, and
// within an epoch the higher index wins per page — a re-based snapshot
// re-sends entries already held. last is the sender's highest index
// where it may exceed the entries sent. taken sees each entry kept,
// with its encoded bytes; entries ahead of a damaged one stay.
func (rl *replSeg) absorb(epoch, last uint32, data []byte, taken func(ent *replEntry, enc []byte)) error {
	if epoch < rl.epoch {
		return nil
	}
	if epoch > rl.epoch || rl.pages == nil {
		*rl = replSeg{epoch: epoch, pages: make(map[int32]*replEntry), lead: rl.lead}
	}
	rl.lastIndex = max(rl.lastIndex, last)
	for len(data) > 0 {
		ent, n, err := decodeReplEntry(data)
		if err != nil {
			return err
		}
		if cur := rl.pages[ent.post.page]; cur == nil || ent.index > cur.index {
			rl.pages[ent.post.page] = &ent
			rl.lastIndex = max(rl.lastIndex, ent.index)
			if taken != nil {
				taken(&ent, data[:n])
			}
		}
		data = data[n:]
	}
	return nil
}

// handleAppendAck runs at the leader: a cumulative-ack advance
// re-evaluates the gates. Stale-epoch acks never get here — the generic
// fence drops them — so the ack counting only ever sees appliers of the
// current term.
func (e *Engine) handleAppendAck(sn *segNode, m *wire.Msg) {
	rl := sn.repl
	if rl == nil || rl.lead == nil || !slices.Contains(rl.lead.followers, int(m.From)) {
		e.markStale()
		return
	}
	rl.lead.acked[int(m.From)] = max(rl.lead.acked[int(m.From)], m.Cycle)
	e.replRecomputeGates(sn)
}

// replRetry runs on every request the library takes and on every gate
// it opens. A follower the channel gave up on is sent nothing — each
// append would cost a whole retry ladder toward a site that is gone —
// until the followers still streamed cannot form the quorum while a
// gate waits: then each is sent the whole log again, so the first
// request after the group is back commits what waited, as a request to
// a stalled election asks its voters again. A follower left behind
// meanwhile is safe: every entry committed without it is on a commit
// quorum of the others.
func (e *Engine) replRetry(sn *segNode) {
	rl := sn.repl
	if rl == nil || rl.lead == nil || len(rl.lead.gates) == 0 {
		return
	}
	n := 1
	for _, f := range rl.lead.followers {
		if rl.lead.based[f] {
			n++
		}
	}
	if n >= e.replQuorum() {
		return
	}
	for _, f := range rl.lead.followers {
		if !rl.lead.based[f] {
			e.replSendLog(sn, f)
			rl.lead.based[f] = true
		}
	}
}

// ---- Election: takeover from the log ----

// beginElection solicits the group's ballots for the candidacy rc: the
// logs of the replaced library's group, merged until a vote quorum has
// answered. The candidate's own log is the first ballot when it is a
// member (a copy: a lost race must leave this site's ballot for the next
// election as it was). A ballot merges only once reassemble has all of
// it, so a truncated higher-epoch ballot can never replace the merge
// wholesale with a partial page set.
func (e *Engine) beginElection(sn *segNode, rc *recovery) {
	rc.log.pages = make(map[int32]*replEntry)
	if slices.Contains(e.replFollowers(rc.from), e.site) {
		rc.votes = 1
		if rl := sn.repl; rl != nil {
			rc.log.epoch, rc.log.lastIndex = rl.epoch, rl.lastIndex
			maps.Copy(rc.log.pages, rl.pages)
		}
	}
	e.solicitVotes(sn, rc)
}

// solicitVotes asks every member whose ballot is neither merged nor
// due, and settles, stalls or waits for the round.
func (e *Engine) solicitVotes(sn *segNode, rc *recovery) {
	switch {
	case rc.votes >= e.replVoteQuorum():
		e.settleElection(sn)
		return
	case len(rc.due) > 0:
		return // a round is out
	}
	rc.stalled = false
	for _, s := range e.replFollowers(rc.from) {
		if s != e.site && !rc.voted.Has(s) {
			rc.due[s] = true
			e.send(s, &wire.Msg{Kind: wire.KVote, Seg: int32(sn.meta.ID), Page: -1, Req: int32(e.site)})
		}
	}
	e.armRecovery(sn, rc, e.stallElection)
}

// stallElection ends a round that did not reach the vote quorum:
// nothing installs, and the requests that waited for the record are
// denied. The candidacy stays — the epoch it promised itself is its
// own — and asks again on the next request (handle).
func (e *Engine) stallElection(sn *segNode) {
	rc := sn.recov
	rc.disarm()
	clear(rc.due)
	rc.stalled, rc.probing = true, false
	held := rc.buffered[:0]
	for _, m := range rc.buffered {
		switch m.Kind {
		case wire.KReadReq:
			e.libDeny(sn, m.Page, int(m.Req), wire.Read, false)
		case wire.KWriteReq:
			e.libDeny(sn, m.Page, int(m.Req), wire.Write, false)
		default:
			held = append(held, m)
		}
	}
	rc.buffered = held
}

// handleVote serves both directions of the election exchange. A
// solicitation (From == Req, another site) is answered with this
// site's ballot, if the solicitor is the library this site knows for
// the epoch: a vote is a promise, and a candidate knows itself. A reply
// (Req == this site) merges once all of it has arrived.
func (e *Engine) handleVote(sn *segNode, m *wire.Msg) {
	from := int(m.From)
	switch rc := sn.recov; {
	case int(m.Req) == from && from != e.site:
		if rc != nil && from < e.site && m.SegEpoch == sn.segEpoch.Load() {
			// A lower-numbered candidate for this site's own epoch: this
			// candidacy withdraws, installs nothing, and votes. Without the
			// order two candidates that each promised themselves would
			// refuse each other for good.
			e.stallElection(sn)
			sn.recov, sn.curLib = nil, from
			e.resetPages(sn, true, false)
			e.wakeAll(sn)
		}
		if sn.curLib == from {
			e.sendVoteReply(sn.repl, m.Seg, sn.segEpoch.Load(), from)
		}
	case int(m.Req) == e.site && rc != nil && !rc.probing && rc.due[from]:
		b, whole := sn.reassemble(m, 8)
		if !whole {
			return
		}
		delete(rc.due, from)
		rc.voted = rc.voted.Add(from)
		// A ballot cut off by a damaged entry still counts as a vote, with
		// the entries ahead of the damage.
		_ = rc.log.absorb(binary.BigEndian.Uint32(b[0:]), binary.BigEndian.Uint32(b[4:]), b[8:], nil)
		rc.votes++
		e.solicitVotes(sn, rc)
	default:
		e.markStale()
	}
}

// sendVoteReply ships a ballot (rl, nil for an empty log) to an election
// candidate: every chunk headed by the log's (epoch, index) and stamped
// with the voter's epoch, the entries the whole compacted log.
func (e *Engine) sendVoteReply(rl *replSeg, seg int32, epoch uint32, to int) {
	hdr := make([]byte, 8)
	var ents []*replEntry
	if rl != nil {
		binary.BigEndian.PutUint32(hdr[0:], rl.epoch)
		binary.BigEndian.PutUint32(hdr[4:], rl.lastIndex)
		ents = rl.entries()
	}
	tmpl := wire.Msg{Kind: wire.KVote, Seg: seg, Page: -1, Req: int32(to), SegEpoch: epoch}
	e.sendChunked(to, tmpl, hdr, len(ents), func(m *wire.Msg, i int) {
		m.Data = encodeReplEntry(m.Data, ents[i])
	})
}

// settleElection runs once the vote quorum is merged. A migration
// installs the offer it holds: the epoch was all it needed. Otherwise
// every site the log names is probed with the ordinary holdings query.
// The log knows of every copy granted, but not of one given up since:
// a release the lost library never confirmed leaves a reader that no
// longer holds the page. And a page whose latest entry is a still
// in-flight intent is ambiguous — the crash may have landed before,
// during, or after the cycle the intent announced. The probe doubles as
// the epoch notice: it forces adoptEpoch at the target, which rolls back
// the target's pending invalidation state before it reports.
func (e *Engine) settleElection(sn *segNode) {
	rc := sn.recov
	rc.disarm()
	clear(rc.due)
	switch {
	case rc.offer != nil:
		e.finishRecovery(sn)
		return
	case rc.log.epoch+1 != sn.segEpoch.Load():
		// No ballot carries the replaced library's own log: it may have
		// installed a record its group never stored. Nothing installs.
		e.stallElection(sn)
		return
	}
	var targets mmu.Copyset
	for _, ent := range rc.log.pages {
		for _, r := range []libRecord{ent.post, ent.prior} {
			for _, s := range append(r.readers.Sites(), r.writer, r.clock) {
				if s >= 0 && s < e.sites { // a log may name anything
					targets = targets.Add(s)
				}
			}
		}
	}
	// This site's own holdings, merged with the probes' (it is never
	// probed), resolve intents it was itself involved in: e.g. an upgrade
	// intent whose new writer is the electing site — whether it took
	// effect is written in the local MMU, not in anyone else's report.
	rc.probing = true
	e.queryHoldings(sn, rc, targets)
}

// resolveIntent picks the record for a page whose log tail is an
// in-flight intent, from the probed holdings of the involved sites.
// One copy decides: a write (or upgrade) took effect only if its new
// writer holds the writable copy, and a downgrade failed only if the old
// writer still does; a pure reader extension is always safe to adopt —
// a listed reader without a copy just acks its invalidations vacuously.
// When the deciding copy is at the replaced library, which no probe
// reaches, the page stays with it (writes aimed there fail fast while it
// is away) and every read copy either record names is ordered discarded
// (repairRecord): whichever way the cycle went, no copy outlives a write
// the lost library may still make.
func resolveIntent(rc *recovery, ent *replEntry) libRecord {
	post, prior := ent.post, ent.prior
	held, ok := rc.held[post.page] // who reported the writable copy
	decider, took := post.writer, post.writer != mmu.NoWriter
	if !took {
		decider = prior.writer
	}
	switch {
	case decider == rc.from:
		post.writer, post.readers = rc.from, post.readers.Union(prior.readers)
		return post
	case decider == mmu.NoWriter || (ok && held == decider) == took:
		return post
	}
	return prior
}

// logSource is the crash rehoming source (DESIGN.md §15): the merged
// log tail, each in-flight intent resolved. It is not exact — the log
// runs ahead of the holders by design, and the dead leader's own copies
// are in it — and a page never logged never left its creator, the dead
// leader: it stays as freshRecord left it, for installLibrary to orphan
// like any page with no surviving copy.
func (e *Engine) logSource(sn *segNode, rc *recovery) libSource {
	recs := make([]libRecord, sn.m.Pages())
	for pg := range recs {
		switch ent := rc.log.pages[int32(pg)]; {
		case ent == nil:
			recs[pg] = freshRecord(sn.meta, pg)
		case ent.intent:
			recs[pg] = resolveIntent(rc, ent)
		default:
			recs[pg] = ent.post
		}
		// A site that answered without the copy the record names has
		// given it up.
		r, page := &recs[pg], int32(pg)
		r.readers = r.readers.Subtract(rc.replied.Subtract(rc.copies[page]))
		if w, ok := rc.held[page]; rc.replied.Has(r.writer) && (!ok || w != r.writer) {
			r.writer = mmu.NoWriter
		}
	}
	return libSource{recs: recs, prev: rc.from, epoch: sn.segEpoch.Load(), announce: func() {
		e.count(obs.CElect)
		e.emit(obs.Event{Type: obs.EvElect, Seg: int32(sn.meta.ID), From: int32(rc.from),
			Cycle: rc.log.epoch, Arg: int64(rc.log.lastIndex)})
		e.count(obs.CRecovery)
		e.obs.Observe(obs.HRecoverLatency, int64(e.env.Now()-rc.started))
		e.emit(obs.Event{Type: obs.EvRecover, Seg: int32(sn.meta.ID), Arg: int64(rc.from)})
	}}
}
