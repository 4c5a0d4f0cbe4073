package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"time"

	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/wire"
)

// Consensus-replicated library records (DESIGN.md §15, docs/REPLICATION.md).
//
// Failover (DESIGN.md §11) rebuilds the library record after a crash by
// interrogating every surviving holder — a cluster-wide pause whose
// length grows with the site count. Replication removes the pause: the
// library (leader) mirrors every page-record mutation to a small group
// of follower sites as log entries BEFORE the mutation's effects reach
// the rest of the cluster, so a successor already inside the group can
// install the record from its log tail instead of reconstructing it.
// The log term is the existing per-segment library epoch: a takeover
// bumps it exactly as failover does, and the same epoch fence that
// isolates a dead library's traffic isolates a dead leader's stream.
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
// Completed cycles, releases, reclaims and Δ retunes log a *set* entry
// carrying the committed record. Entries are full per-page snapshots,
// so both ends compact the log to the latest entry per page — no
// unbounded log, and a vote reply is at most one entry per page.
type Replication struct {
	// Replicas is the number of follower sites mirroring each segment's
	// record: the R sites after the current library in ID order. 0
	// disables replication (the zero Options.Replication is inert).
	Replicas int
}

// replFollowers returns the follower group for a segment led by
// leader: the Replicas sites after it in ID order.
func (e *Engine) replFollowers(leader int) []int {
	var out []int
	for i := 1; len(out) < e.replication.Replicas && i < e.sites; i++ {
		out = append(out, (leader+i)%e.sites)
	}
	return out
}

// replGroupHas reports whether s is in the follower group of a segment
// led by leader.
func (e *Engine) replGroupHas(leader, s int) bool {
	return slices.Contains(e.replFollowers(leader), s)
}

// replQuorum is the number of group members (leader counts itself)
// whose applied log must cover an intent before its cycle opens: a
// majority of leader + Replicas followers.
func (e *Engine) replQuorum() int {
	return (e.replication.Replicas+1)/2 + 1
}

// replVoteQuorum is the number of group logs (the winner's own
// included) an election must merge before installing: sized so any
// vote set intersects any commit set in at least one surviving
// follower.
func (e *Engine) replVoteQuorum() int {
	return e.replication.Replicas + 2 - e.replQuorum()
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
	dead      map[int]bool   // followers the channel gave up on
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

// replElect is an election winner's vote-merge state, carried on the
// recovery struct so the existing request buffering covers the whole
// takeover. A ballot merges only once reassemble has all of it, so a
// truncated higher-epoch ballot can never replace the merge wholesale
// with a partial page set.
type replElect struct {
	log     replSeg      // the merge so far: best epoch, its highest index, per-page latest entries
	waiting map[int]bool // voters whose ballot is still due
	votes   int          // complete ballots merged, the winner's own included
	need    int          // replVoteQuorum
}

// replActive reports whether this site is currently gating mutations
// through a live replication group for the segment.
func (e *Engine) replActive(sn *segNode) bool {
	return sn.repl != nil && sn.repl.lead != nil && len(sn.repl.lead.followers) > 0
}

// replSeedLeader makes this site the segment's log leader for the
// current epoch: one set entry per page (indexes 1..P) snapshotting
// the just-installed record, so the epoch's log is complete from entry
// one and followers re-base from it.
func (e *Engine) replSeedLeader(sn *segNode) {
	rl := &replSeg{epoch: sn.segEpoch.Load(), pages: make(map[int32]*replEntry, len(sn.lib.pages))}
	for pg := range sn.lib.pages {
		rl.pages[int32(pg)] = &replEntry{index: uint32(pg + 1), post: sn.lib.pages[pg].logged()}
	}
	rl.lastIndex = uint32(len(sn.lib.pages))
	rl.lead = &replLead{
		followers: e.replFollowers(e.site),
		acked:     make(map[int]uint32),
		dead:      make(map[int]bool),
		based:     make(map[int]bool),
	}
	sn.repl = rl
}

// replBaseFollowers ships the just-seeded log to every follower at
// once. installLibrary's choice, where the group members are
// known-attached; segment creation bases lazily on first append
// instead, so a follower that has not attached yet is not benched
// before it ever joined.
func (e *Engine) replBaseFollowers(sn *segNode) {
	ld := sn.repl.lead
	for _, f := range ld.followers {
		e.replSendLog(sn, f)
		ld.based[f] = true
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
// the live followers. A non-nil cont is gated on the group quorum
// acknowledging the entry (released immediately when the quorum is
// already unreachable — degraded, counted, and deliberately without a
// commit event so the checker's durability invariant stays one-sided).
// A nil cont is fire-and-forget: the entry replicates but nothing
// waits on it.
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
		if ld.dead[f] {
			continue
		}
		if !ld.based[f] {
			// First contact this epoch (or a re-based revival): ship the
			// whole compacted log — per-page latest entries, the new one
			// included — so the follower's ballot is complete.
			e.replSendLog(sn, f)
			ld.based[f] = true
			continue
		}
		e.send(f, &wire.Msg{Kind: wire.KAppend, Seg: seg, Page: ent.post.page, Cycle: ent.index, Data: enc})
	}
	if cont == nil {
		return
	}
	g := &replGate{index: ent.index, page: ent.post.page, digest: dig, started: e.env.Now(), release: cont}
	ld.gates = append(ld.gates, g)
	e.replRecomputeGates(sn)
}

// tail returns the log's entries above index after, in index order (a
// follower's applied-index stream must ascend).
func (rl *replSeg) tail(after uint32) []*replEntry {
	var ents []*replEntry
	for _, ent := range rl.pages {
		if ent.index > after {
			ents = append(ents, ent)
		}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].index < ents[j].index })
	return ents
}

// replSendLog ships the leader's whole compacted log to one follower:
// a snapshot (Page -1), each chunk stamped with its last index.
func (e *Engine) replSendLog(sn *segNode, f int) {
	ents := sn.repl.tail(0)
	tmpl := wire.Msg{Kind: wire.KAppend, Seg: int32(sn.meta.ID), Page: -1}
	e.sendChunked(f, tmpl, nil, len(ents), func(m *wire.Msg, i int) {
		m.Data = encodeReplEntry(m.Data, ents[i])
		m.Cycle = ents[i].index
	})
}

// replRecomputeGates re-evaluates every pending gate against the
// current ack state. A gate whose quorum arrived commits (EvReplicate
// with From == Site, the replication-lag sample, the counter); when
// the live group can no longer form a quorum at all, every gate is
// released degraded instead — blocking grants on acks that cannot come
// would trade durability for a livelock.
func (e *Engine) replRecomputeGates(sn *segNode) {
	ld := sn.repl.lead
	if ld == nil || len(ld.gates) == 0 {
		return
	}
	q := e.replQuorum()
	degraded := ld.covering(0) < q // index 0: everyone live
	seg := int32(sn.meta.ID)
	var keep []*replGate
	for _, g := range ld.gates {
		switch {
		case ld.covering(g.index) >= q:
			e.count(obs.CReplCommit)
			e.obs.Observe(obs.HReplLag, int64(e.env.Now()-g.started))
			e.emit(obs.Event{Type: obs.EvReplicate, Seg: seg, Page: g.page,
				From: int32(e.site), Arg: int64(g.index), Cycle: g.digest})
			g.release()
		case degraded:
			e.count(obs.CReplDegraded)
			g.release()
		default:
			keep = append(keep, g)
		}
	}
	ld.gates = keep
}

// covering counts the group members whose log has reached index: the
// live followers that acknowledged it, and the leader, whose own log
// always covers its gates.
func (ld *replLead) covering(index uint32) int {
	n := 1
	for _, f := range ld.followers {
		if !ld.dead[f] && ld.acked[f] >= index {
			n++
		}
	}
	return n
}

// replGateCycleOpen logs a grant cycle's write-ahead intent — the
// record as it stands and as the cycle will commit it: with the given
// writer, clock and readers — and defers the cycle's opening send to
// the quorum commit. The continuation
// re-checks the cycle (by number) before sending: an epoch change or
// abort in the gap must not fire a dead cycle's invalidation.
func (e *Engine) replGateCycleOpen(sn *segNode, page int32, to int, open *wire.Msg,
	writer, clock int, readers mmu.Copyset) {
	if !e.replActive(sn) {
		e.send(to, open)
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
			e.send(to, open)
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
// acknowledges its cumulative applied index. The generic epoch fence
// already matched the message to this site's epoch; a stream from a
// newer term than the local log resets it (the leader re-bases every
// epoch with a full snapshot, so nothing carried over is needed). A
// snapshot (Page -1) applies only once all of it is here: a log reset
// to half a snapshot would be a ballot that names half the pages.
func (e *Engine) handleAppend(sn *segNode, m *wire.Msg) {
	if mutateReplAckWithoutApply {
		// MUTATION BUILD: acknowledge the append without applying it —
		// the lie the acked-append-lost invariant exists to catch.
		e.send(int(m.From), &wire.Msg{Kind: wire.KAppendAck, Seg: m.Seg, Page: m.Page, Cycle: m.Cycle})
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
	rl := sn.repl
	err := rl.absorb(m.SegEpoch, 0, data, func(ent *replEntry, enc []byte) {
		e.emit(obs.Event{Type: obs.EvReplicate, Seg: m.Seg, Page: ent.post.page,
			From: m.From, Arg: int64(ent.index), Cycle: replDigest(enc)})
	})
	if err != nil {
		e.markStale()
	}
	e.send(int(m.From), &wire.Msg{Kind: wire.KAppendAck, Seg: m.Seg, Page: m.Page, Cycle: rl.lastIndex})
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
// re-evaluates the gates, a refusal (Page -2: the peer holds no state
// for the segment) benches the follower with a timed retry, and any
// current-epoch ack from a benched follower revives it (with a re-base,
// since it missed entries while benched). Stale-epoch acks never get
// here — the generic fence drops them — so the ack counting only ever
// sees appliers of the current term.
func (e *Engine) handleAppendAck(sn *segNode, m *wire.Msg) {
	rl := sn.repl
	if rl == nil || rl.lead == nil {
		e.markStale()
		return
	}
	ld := rl.lead
	f := int(m.From)
	if !slices.Contains(ld.followers, f) {
		e.markStale()
		return
	}
	if m.Page == -2 {
		e.replFollowerFailed(sn, f)
		return
	}
	if m.Cycle > ld.acked[f] {
		ld.acked[f] = m.Cycle
	}
	if ld.dead[f] {
		ld.dead[f] = false
		ld.based[f] = false
	}
	e.replRecomputeGates(sn)
}

// replArmRevival schedules one retry for a benched follower: after the
// recovery timeout the next append re-bases it. A follower that is
// really gone just benches again — bounded, periodic, and deterministic
// in simulation.
func (e *Engine) replArmRevival(sn *segNode, f int) {
	epoch := sn.segEpoch.Load()
	e.after(sn, e.failover.RecoverTimeout, func() {
		if sn.segEpoch.Load() == epoch && sn.repl != nil && sn.repl.lead != nil {
			sn.repl.lead.dead[f] = false
			sn.repl.lead.based[f] = false
		}
	})
}

// replFollowerFailed benches a follower whose append channel gave up
// and re-evaluates the gates (the quorum may have shrunk past reach).
func (e *Engine) replFollowerFailed(sn *segNode, f int) {
	rl := sn.repl
	if rl == nil || rl.lead == nil {
		e.count(obs.CDropped)
		return
	}
	rl.lead.dead[f] = true
	rl.lead.based[f] = false
	e.replArmRevival(sn, f)
	e.replRecomputeGates(sn)
}

// ---- Election: takeover from the log ----

// beginElection starts the replicated branch of a takeover at the
// nominated successor (beginRecovery already bumped the epoch, claimed
// the role and forgot the dead library's requests): solicit the group's
// log tails, merge a vote quorum, and install from the merged log —
// no cluster-wide holdings interrogation. Vote timeout or an
// unreachable quorum falls back to the holder rebuild under the
// already-bumped epoch.
func (e *Engine) beginElection(sn *segNode, rc *recovery) {
	// The winner's own log is the first ballot (a copy: a lost race must
	// leave this site's ballot for the next election as it was).
	el := &replElect{waiting: make(map[int]bool), votes: 1, need: e.replVoteQuorum()}
	el.log.pages = make(map[int32]*replEntry)
	if rl := sn.repl; rl != nil {
		el.log.epoch, el.log.lastIndex = rl.epoch, rl.lastIndex
		for pg, ent := range rl.pages {
			el.log.pages[pg] = ent
		}
	}
	rc.elect = el
	ballot := binary.BigEndian.AppendUint32(nil, el.log.epoch)
	ballot = binary.BigEndian.AppendUint32(ballot, el.log.lastIndex)
	for _, s := range e.replFollowers(rc.from) {
		if s == e.site {
			continue
		}
		el.waiting[s] = true
		e.send(s, &wire.Msg{Kind: wire.KVote, Seg: int32(sn.meta.ID), Page: -1,
			Req: int32(e.site), Data: append([]byte(nil), ballot...)})
	}
	if el.votes >= el.need || len(el.waiting) == 0 {
		e.settleElection(sn)
		return
	}
	e.armRecovery(sn, rc, e.electionFallback)
}

// handleVote serves both directions of the election exchange. A
// solicitation (From == Req, another site) is answered with this
// site's ballot: log epoch, applied index, and the per-page latest
// entries the solicitor's own log cannot already hold. A reply (Req ==
// this site) merges once all of it has arrived.
func (e *Engine) handleVote(sn *segNode, m *wire.Msg) {
	from := int(m.From)
	switch {
	case int(m.Req) == from && from != e.site:
		e.sendVoteReply(sn, from, m.Data)
	case int(m.Req) == e.site && from != e.site:
		rc := sn.recov
		if rc == nil || rc.elect == nil || !rc.elect.waiting[from] {
			e.markStale()
			return
		}
		el := rc.elect
		b, whole := sn.reassemble(m, 8)
		if !whole {
			return
		}
		delete(el.waiting, from)
		// A ballot cut off by a damaged entry still counts as a vote, with
		// the entries ahead of the damage.
		_ = el.log.absorb(binary.BigEndian.Uint32(b[0:]), binary.BigEndian.Uint32(b[4:]), b[8:], nil)
		el.votes++
		if el.votes >= el.need || len(el.waiting) == 0 {
			e.settleElection(sn)
		}
	default:
		e.markStale()
	}
}

// sendVoteReply ships this site's ballot to an election winner, every
// chunk headed by the log's (epoch, index). The solicitation carries
// the winner's own so a same-epoch reply can skip entries the winner's
// log already covers, and a ballot older than the solicitor's is the
// header alone: its entries cannot beat anything the winner merged.
func (e *Engine) sendVoteReply(sn *segNode, to int, ballot []byte) {
	var solEpoch, solIdx uint32
	if len(ballot) >= 8 {
		solEpoch = binary.BigEndian.Uint32(ballot[0:])
		solIdx = binary.BigEndian.Uint32(ballot[4:])
	}
	hdr := make([]byte, 8)
	var ents []*replEntry
	if rl := sn.repl; rl != nil {
		binary.BigEndian.PutUint32(hdr[0:], rl.epoch)
		binary.BigEndian.PutUint32(hdr[4:], rl.lastIndex)
		switch {
		case rl.epoch > solEpoch:
			ents = rl.tail(0)
		case rl.epoch == solEpoch:
			ents = rl.tail(solIdx)
		}
	}
	tmpl := wire.Msg{Kind: wire.KVote, Seg: int32(sn.meta.ID), Page: -1, Req: int32(to)}
	e.sendChunked(to, tmpl, hdr, len(ents), func(m *wire.Msg, i int) {
		m.Data = encodeReplEntry(m.Data, ents[i])
	})
}

// voteSolicitFailed reacts to an undeliverable solicitation: the voter
// is gone; if no awaited ballot remains and the quorum is short, the
// election cannot complete and the holder rebuild takes over.
func (e *Engine) voteSolicitFailed(sn *segNode, to int) {
	rc := sn.recov
	if rc == nil || rc.elect == nil || !rc.elect.waiting[to] {
		e.count(obs.CDropped)
		return
	}
	delete(rc.elect.waiting, to)
	if len(rc.elect.waiting) == 0 {
		// And the quorum is short, or the election would have settled.
		e.electionFallback(sn)
	}
}

// electionFallback abandons the vote and reconstructs the record from
// the holders (holderSource) under the already-bumped epoch: quorum
// lost means the log's completeness can no longer be proven, and an
// unprovable log is worth less than the holders' own word.
func (e *Engine) electionFallback(sn *segNode) {
	rc := sn.recov
	if rc == nil || rc.elect == nil {
		return
	}
	rc.disarm()
	rc.elect = nil
	e.queryHoldings(sn, rc, e.everySite())
}

// settleElection runs once the vote quorum is merged. Pages whose
// latest entry is a still-in-flight intent are ambiguous — the crash
// may have landed before, during, or after the cycle the intent
// announced — so the involved sites (old writer, new writer, clock)
// are probed with the ordinary holdings query; everything else
// installs straight from the log. The probe doubles as the epoch
// notice: it forces adoptEpoch at the target, which rolls back the
// target's pending invalidation state before it reports.
func (e *Engine) settleElection(sn *segNode) {
	rc := sn.recov
	if rc == nil || rc.elect == nil {
		return
	}
	rc.disarm()
	el := rc.elect
	el.waiting = nil
	var targets mmu.Copyset
	for _, ent := range el.log.pages {
		if !ent.intent {
			continue
		}
		for _, s := range []int{ent.post.writer, ent.post.clock, ent.prior.clock, ent.prior.writer} {
			if s >= 0 && s < e.sites { // a log may name anything
				targets = targets.Add(s)
			}
		}
	}
	// This site's own holdings, merged with the probes' (it is never
	// probed), resolve intents it was itself involved in: e.g. an upgrade
	// intent whose new writer is the electing site — whether it took
	// effect is written in the local MMU, not in anyone else's report.
	e.queryHoldings(sn, rc, targets)
}

// resolveIntent picks the record for a page whose log tail is an
// in-flight intent, from the probed holdings of the involved sites.
// A write (or upgrade) took effect only if its new writer actually
// holds the writable copy; a downgrade failed only if the old writer
// still holds it; a pure reader extension is always safe to adopt —
// a listed reader without a copy just acks its invalidations vacuously.
func resolveIntent(rc *recovery, ent *replEntry) libRecord {
	held := rc.got[ent.post.page].writer // who reported the writable copy
	switch {
	case ent.post.writer != mmu.NoWriter:
		if held == ent.post.writer {
			return ent.post
		}
		return ent.prior
	case ent.prior.writer != mmu.NoWriter:
		if held == ent.prior.writer {
			return ent.prior
		}
		return ent.post
	default:
		return ent.post
	}
}

// logSource is the second rehoming source (DESIGN.md §15): the merged
// log tail, each in-flight intent resolved. It is not exact — the log
// runs ahead of the holders by design, and the dead leader's own copies
// are in it — and a page never logged never left its creator, the dead
// leader: it stays as freshRecord left it, for installLibrary to orphan
// like any page with no surviving copy.
func (e *Engine) logSource(sn *segNode, rc *recovery) libSource {
	el := rc.elect
	recs := make([]libRecord, sn.m.Pages())
	for pg := range recs {
		switch ent := el.log.pages[int32(pg)]; {
		case ent == nil:
			recs[pg] = freshRecord(sn.meta, pg)
		case ent.intent:
			recs[pg] = resolveIntent(rc, ent)
		default:
			recs[pg] = ent.post
		}
	}
	return libSource{recs: recs, prev: rc.from, prevDead: true, epoch: sn.segEpoch.Load(), announce: func() {
		e.count(obs.CElect)
		e.emit(obs.Event{Type: obs.EvElect, Seg: int32(sn.meta.ID), From: int32(rc.from),
			Cycle: el.log.epoch, Arg: int64(el.log.lastIndex)})
		e.announceRecovery(sn, rc)
	}}
}
