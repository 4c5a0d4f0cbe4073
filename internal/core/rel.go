package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/wire"
)

// ErrUnreachable reports a degraded grant: a peer the access depended
// on stayed unreachable past the retry budget, so the fault was failed
// back to the accessor instead of blocking forever. The paper (§10.0)
// deferred this whole problem to Locus virtual circuits; see DESIGN.md
// §7 for the recovery semantics chosen here.
var ErrUnreachable = errors.New("core: peer unreachable (degraded grant)")

// Reliability configures the engine's reliable-delivery layer: a
// per-peer sequenced channel with cumulative acks, duplicate
// suppression, resequencing, and bounded exponential-backoff
// retransmission. It restores the Locus virtual-circuit guarantees
// (§5.0: reliable FIFO delivery) that the protocol state machines
// assume, over a fabric that may drop, duplicate, reorder or delay —
// internal/chaos being the resident adversary.
//
// Reliability is opt-in (Options.Reliability nil keeps the engine
// bit-identical to the paper reproduction: no acks, no extra traffic,
// E1–E5 unchanged).
type Reliability struct {
	// AckTimeout is the initial retransmission timeout; it doubles per
	// attempt up to MaxBackoff. Default 30ms (≈4 short RTTs on the
	// calibrated network).
	AckTimeout time.Duration
	// MaxBackoff caps the doubled timeout. Default 1s.
	MaxBackoff time.Duration
	// MaxAttempts is the transmission budget per message (first send
	// included) before the channel declares the peer unreachable and
	// fails every in-flight message to it. Default 8.
	MaxAttempts int
	// RequestTimeout is the requester-side end-to-end deadline for an
	// outstanding page request: when it expires with the request still
	// unsatisfied, the fault is failed back to the accessor with
	// ErrUnreachable. It is the universal backstop against protocol
	// hangs the per-message budget cannot see (e.g. a grant stuck
	// behind a partitioned third party). Default 8s — comfortably past
	// the give-up horizon of the message budget.
	RequestTimeout time.Duration
}

// autoScaleSites is the cluster size at which an unset AckTimeout stops
// defaulting to the fixed 30ms and starts scaling with the cluster: a
// library serializes N near-simultaneous installs (and their acks) at a
// few ms each, so a fixed small timeout retransmits into its own
// backlog and congestion-collapses the cluster into a give-up livelock
// (first observed in the E20 invalidation sweep). The scaled profile is
// AckTimeout = sites×8ms, and — where unset — MaxBackoff = 4×AckTimeout,
// MaxAttempts = 3, RequestTimeout = 25×AckTimeout. A caller that wants
// the fixed profile at any size sets AckTimeout.
const autoScaleSites = 16

// withDefaults fills the unset fields for a cluster of sites
// (Options.Sites; 0 when the caller did not say).
func (r Reliability) withDefaults(sites int) Reliability {
	if r.AckTimeout == 0 && sites >= autoScaleSites {
		rt := time.Duration(sites) * 8 * time.Millisecond
		r.AckTimeout = rt
		if r.MaxBackoff == 0 {
			r.MaxBackoff = 4 * rt
		}
		if r.MaxAttempts == 0 {
			r.MaxAttempts = 3
		}
		if r.RequestTimeout == 0 {
			r.RequestTimeout = 25 * rt
		}
	}
	if r.AckTimeout == 0 {
		r.AckTimeout = 30 * time.Millisecond
	}
	if r.MaxBackoff == 0 {
		r.MaxBackoff = time.Second
	}
	if r.MaxAttempts == 0 {
		r.MaxAttempts = 8
	}
	if r.RequestTimeout == 0 {
		r.RequestTimeout = 8 * time.Second
	}
	return r
}

// relPending is one unacknowledged sequenced message at the sender.
type relPending struct {
	m        *wire.Msg
	attempts int // transmissions so far
	cancel   func()
}

// relPeer is the two directions of one peer's channel.
type relPeer struct {
	// Sender half: our stream to the peer.
	nextSeq uint64
	epoch   uint32
	pending map[uint64]*relPending

	// Receiver half: the peer's stream to us.
	rEpoch uint32
	rNext  uint64 // next expected sequence number
	hold   map[uint64]*wire.Msg
}

// rel is an engine's reliability layer.
type rel struct {
	e     *Engine
	opt   Reliability
	peers map[int]*relPeer
}

func newRel(e *Engine, opt Reliability) *rel {
	return &rel{e: e, opt: opt, peers: make(map[int]*relPeer)}
}

func (r *rel) peer(site int) *relPeer {
	p, ok := r.peers[site]
	if !ok {
		p = &relPeer{nextSeq: 1, rNext: 1, pending: make(map[uint64]*relPending), hold: make(map[uint64]*wire.Msg)}
		r.peers[site] = p
	}
	return p
}

// timeout returns the retransmission timeout for the given attempt
// count (1 = first transmission already made).
func (r *rel) timeout(attempts int) time.Duration {
	d := r.opt.AckTimeout
	for i := 1; i < attempts; i++ {
		d *= 2
		if d >= r.opt.MaxBackoff {
			return r.opt.MaxBackoff
		}
	}
	return d
}

// send stamps m onto the peer's sequenced stream and transmits it,
// arming the retransmission timer. m is shallow-copied so by-reference
// transports and retransmissions never observe caller mutation.
func (r *rel) send(to int, m *wire.Msg) {
	p := r.peer(to)
	cp := *m
	cp.Seq = p.nextSeq
	cp.Epoch = p.epoch
	p.nextSeq++
	pd := &relPending{m: &cp, attempts: 1}
	p.pending[cp.Seq] = pd
	r.e.env.Send(to, &cp)
	r.arm(to, p, pd)
}

func (r *rel) arm(to int, p *relPeer, pd *relPending) {
	// No guard: an ack or a give-up that retires pd cancels this timer,
	// and a cancelled timer never fires (Env.After).
	pd.cancel = r.e.env.After(r.timeout(pd.attempts), func() {
		if pd.attempts >= r.opt.MaxAttempts {
			r.giveUp(to, p)
			return
		}
		pd.attempts++
		r.e.count(obs.CRetransmit)
		r.e.emit(obs.Event{Type: obs.EvRetransmit, Kind: pd.m.Kind,
			Seg: pd.m.Seg, Page: pd.m.Page, From: int32(r.e.site), To: int32(to),
			Cycle: pd.m.Cycle, Arg: int64(pd.m.Seq)})
		r.e.env.Send(to, pd.m)
		r.arm(to, p, pd)
	})
}

// giveUp declares the peer unreachable: every in-flight message to it
// is abandoned, the stream restarts on a new epoch (so the receiver
// discards zombie retransmissions), and the engine reacts per message
// through deliveryFailed.
func (r *rel) giveUp(to int, p *relPeer) {
	var msgs []*wire.Msg
	for _, pd := range p.pending {
		if pd.cancel != nil {
			pd.cancel()
		}
		msgs = append(msgs, pd.m)
	}
	p.pending = make(map[uint64]*relPending)
	p.epoch++
	p.nextSeq = 1
	r.e.count(obs.CGaveUp)
	// React in send order: earlier messages set up state later ones
	// depend on.
	sort.Slice(msgs, func(i, j int) bool { return msgs[i].Seq < msgs[j].Seq })
	for _, m := range msgs {
		r.e.deliveryFailed(to, m)
	}
}

// onAck retires every pending message up to the cumulative ack.
func (r *rel) onAck(m *wire.Msg) {
	p := r.peer(int(m.From))
	if m.Epoch != p.epoch {
		return // ack for an abandoned incarnation
	}
	for seq, pd := range p.pending {
		if seq <= m.Seq {
			if pd.cancel != nil {
				pd.cancel()
			}
			delete(p.pending, seq)
		}
	}
}

// onSequenced accepts one sequenced message from a peer: it
// deduplicates, resequences (restoring per-circuit FIFO under
// reordering faults), delivers in order, and acks cumulatively.
// Out-of-order messages are held unacked so a sender give-up can never
// strand an acknowledged-but-undelivered message.
func (r *rel) onSequenced(m *wire.Msg) {
	from := int(m.From)
	p := r.peer(from)
	if m.Epoch != p.rEpoch {
		if m.Epoch < p.rEpoch {
			return // zombie from an abandoned incarnation
		}
		// The sender gave up and restarted its stream.
		p.rEpoch = m.Epoch
		p.rNext = 1
		p.hold = make(map[uint64]*wire.Msg)
	}
	switch {
	case m.Seq < p.rNext:
		// Duplicate (retransmission raced the ack, or a chaos dup).
		r.e.count(obs.CDupDrop)
		r.ack(from, p)
	case m.Seq == p.rNext:
		p.rNext++
		r.e.handle(m)
		for {
			next, ok := p.hold[p.rNext]
			if !ok {
				break
			}
			delete(p.hold, p.rNext)
			p.rNext++
			r.e.handle(next)
		}
		r.ack(from, p)
	default:
		// Gap: an earlier message is missing (dropped or reordered).
		// Hold, bounded; the sender keeps retransmitting into the gap.
		if len(p.hold) < 1024 {
			p.hold[m.Seq] = m
		}
	}
}

// ack sends the cumulative acknowledgement for everything delivered.
func (r *rel) ack(to int, p *relPeer) {
	r.e.env.Send(to, &wire.Msg{
		Kind: wire.KAck, From: int32(r.e.site), Seq: p.rNext - 1, Epoch: p.rEpoch,
	})
}

// deliveryFailed is the engine's reaction to one message the reliable
// channel could not deliver within its budget. Each message kind has a
// recovery that keeps the library record consistent with the copies
// that actually exist and fails blocked accessors instead of hanging
// them; page data in a failed grant is rehomed at the library, never
// lost. See DESIGN.md §7.
func (e *Engine) deliveryFailed(to int, m *wire.Msg) {
	sn, ok := e.segs[m.Seg]
	if !ok {
		e.count(obs.CDropped)
		return
	}
	switch m.Kind {
	case wire.KReadReq, wire.KWriteReq, wire.KReleaseRead, wire.KReleaseWrite:
		if e.fence && m.SegEpoch != sn.segEpoch.Load() {
			// A request or release of a superseded epoch: adoptEpoch
			// forgot the request — the page's request now outstanding, if
			// any, is another one this give-up says nothing about — and
			// re-issued the release against the current library, resetting
			// the pending count this give-up must not decrement.
			e.count(obs.CDropped)
			return
		}
	}
	switch m.Kind {
	case wire.KReadReq, wire.KWriteReq:
		// The library is unreachable. With failover enabled, nominate a
		// successor and leave the faults blocked — the request deadline
		// stays armed as the backstop and the takeover's epoch adoption
		// wakes them to re-request. Otherwise fail the access.
		if e.failover != nil && to == sn.curLib &&
			e.triggerFailover(sn, m.Seg, mmu.Copyset{}) {
			return
		}
		e.failPage(sn, m.Seg, m.Page, fmt.Errorf("%w: site %d (library) lost %v", ErrUnreachable, to, m.Kind))

	case wire.KInval, wire.KAddReader:
		// The clock site is unreachable: abort the cycle, deny the
		// requesters, leave the record as it was.
		e.libAbortCycle(sn, m.Page)

	case wire.KPageSend:
		if sn.lib != nil && m.Cycle == 0 {
			return // a rollback refresh copy, not part of a cycle
		}
		// A grant could not reach its new holder. Write grants carry
		// the only current copy: home it at the library. Read grants
		// just shrink the batch.
		fail := &wire.Msg{
			Kind: wire.KGrantFail, Mode: m.Mode, Seg: m.Seg, Page: m.Page,
			Req: int32(to), Cycle: m.Cycle,
		}
		if m.Mode == wire.Write {
			fail.Data = m.Data
		}
		e.send(sn.curLib, fail)

	case wire.KUpgradeGrant:
		// The in-place upgrade never reached the requester. The clock
		// (this site) invalidated its own copy when the cycle was
		// accepted; the captured frame rehomes at the library.
		fail := &wire.Msg{
			Kind: wire.KGrantFail, Mode: wire.Write, Upgrade: true,
			Seg: m.Seg, Page: m.Page, Req: int32(to), Cycle: m.Cycle,
			Data: sn.pages[m.Page].relPart().stash,
		}
		e.send(sn.curLib, fail)

	case wire.KInvalOrder:
		if rl := sn.pages[m.Page].relay; rl != nil && rl.cycle == m.Cycle {
			e.relayOrderFailed(sn, m.Page, rl, to)
			return
		}
		e.invalOrderFailed(sn, m, to)

	case wire.KRecover:
		if sn.recov != nil && int(m.Req) == e.site {
			// Our holdings probe never got through: the probed site is
			// cut off too; resolve without its report.
			e.recovPeerDone(sn, to)
			return
		}
		// A takeover trigger that could not reach its candidate: walk
		// on to the next one. Readers carries the candidates tried.
		if e.failover != nil && int(m.Req) == to &&
			e.triggerFailover(sn, m.Seg, m.Readers) {
			return
		}
		e.count(obs.CDropped)

	case wire.KMigrate:
		// The migration offer could not reach the successor. The final
		// chunk is abandoned with the rest of the circuit, so the
		// successor can never install the role: resume as library under
		// the unchanged epoch.
		e.abortMigration(sn, false)

	case wire.KReleaseRead, wire.KReleaseWrite:
		// The library never heard the release; keep the copy and stop
		// waiting so local accesses work again.
		if sn.releasesPending > 0 {
			sn.releasesPending--
			if sn.releasesPending == 0 {
				sn.m.Open()
				e.wakeAll(sn)
			}
		}

	case wire.KAppend:
		// A follower's append channel gave up: it is sent nothing until
		// the quorum needs it, and then the whole log (replRetry).
		if rl := sn.repl; rl != nil && rl.lead != nil {
			rl.lead.based[to] = false
		}

	case wire.KAppendAck:
		// The leader is unreachable from this follower — the same verdict
		// a lost request gives a requester: nominate a successor.
		if e.failover != nil && to == sn.curLib &&
			e.triggerFailover(sn, m.Seg, mmu.Copyset{}) {
			return
		}
		e.count(obs.CDropped)

	default:
		// KInstalled, KBusy, KInvalAck, KAlready, KDenied, KGrantFail,
		// KClockHandoff, KReleaseDone: best-effort notifications. Losing
		// one can stall the remote end's cycle, which the requester-side
		// RequestTimeout backstop converts into a degraded grant there.
		e.count(obs.CDropped)
	}
}

// invalOrderFailed rolls the clock site back when a reader ordered to
// discard its copy stayed unreachable: the write cycle cannot complete
// (the unreachable reader may still serve local reads), so the clock
// reinstates its own copy, re-ships copies to readers that already
// discarded theirs, restores the reader mask, and reports the aborted
// grant to the library — no data moved, record unchanged.
func (e *Engine) invalOrderFailed(sn *segNode, m *wire.Msg, to int) {
	sp := &sn.pages[m.Page]
	pi := sp.pend
	if pi == nil {
		e.markStale()
		return
	}
	sp.pend = nil
	// Without a frame to roll back with, the library's copy-carrying
	// abort path is the only option left.
	if e.reinstate(sn, m.Page, pi) {
		data := sn.m.Frame(int(m.Page))
		pi.acked.ForEach(func(s int) {
			e.send(s, &wire.Msg{
				Kind: wire.KPageSend, Mode: wire.Read, Seg: m.Seg, Page: m.Page,
				Data: append([]byte(nil), data...),
			})
		})
	}
	e.grantFail(sn.curLib, pi.m, wire.Write, pi.m.Req, false)
}

// grantFail tells to that the cycle of m, a message of the cycle, cannot
// complete here for requester req: a reader of a read batch, the
// requester of a write grant (upgrade: it holds no copy to upgrade), or
// -1 for the whole cycle. The library answers with handleGrantFail.
func (e *Engine) grantFail(to int, m *wire.Msg, mode wire.Mode, req int32, upgrade bool) {
	e.send(to, &wire.Msg{Kind: wire.KGrantFail, Mode: mode, Seg: m.Seg, Page: m.Page,
		Req: req, Upgrade: upgrade, Cycle: m.Cycle})
}

// failPage fails every blocked accessor on the page with err: the
// degraded-grant path. Outstanding request state is cleared so a later
// access retries from scratch. A failed write intent drops a stale
// read copy when another site is known to hold one (never the last
// copy), bounding staleness after an upgrade grant was rehomed.
func (e *Engine) failPage(sn *segNode, seg, page int32, err error) {
	sp := &sn.pages[page]
	hadW := sp.outW
	if !sp.outR && !hadW {
		return
	}
	sp.outR, sp.outW = false, false
	sp.reqProgress()
	p := int(page)
	if hadW && sn.m.Prot(p) == mmu.ReadOnly && !sn.m.Aux(p).ReaderMask.Equal(mmu.CopysetOf(e.site)) {
		// Either we are not the clock (the clock holds a copy) or other
		// readers exist: discarding ours cannot lose data. The library
		// still lists this site as a reader — and possibly as the clock.
		// Shed the record entry (the frame rides along as the rehome
		// copy, like any release) so the library reassigns the clock
		// role; otherwise every later write cycle is aimed at a copy that
		// no longer exists and aborts forever.
		e.send(sn.curLib, &wire.Msg{
			Kind: wire.KReleaseRead, Seg: seg, Page: page, Data: e.drop(sn, page, 0, true),
		})
	}
	if len(sp.waiters) > 0 {
		sp.relPart().err = err
		e.count(obs.CDegraded)
	}
	e.wakeWaiters(sn, page)
}

// FaultError takes (returns and clears) the pending degraded-grant
// error for a page. Access layers call it after a fault wake: non-nil
// means the access should fail with the error rather than refault.
func (e *Engine) FaultError(seg, page int32) error {
	sn, ok := e.segs[seg]
	if !ok {
		return nil
	}
	return sn.pages[page].takeErr()
}

// armReqTimer starts the end-to-end request deadline for a page if not
// already running.
func (e *Engine) armReqTimer(sn *segNode, seg, page int32) {
	if e.rel == nil {
		return
	}
	r := sn.pages[page].relPart()
	if r.cancelReq != nil {
		return
	}
	r.cancelReq = e.after(sn, e.rel.opt.RequestTimeout, func() {
		r.cancelReq = nil
		e.failPage(sn, seg, page, fmt.Errorf("%w: request for seg %d page %d timed out", ErrUnreachable, seg, page))
	})
}

// reqProgress stops the request deadline once nothing is outstanding
// for the page.
func (sp *sitePage) reqProgress() {
	if r := sp.rel; r != nil && r.cancelReq != nil && !sp.outR && !sp.outW {
		r.cancelReq()
		r.cancelReq = nil
	}
}

// handleDenied runs at a requester whose queued request the library
// could not serve (a peer in the grant path is unreachable).
//
// A read cycle is aborted when the library gives up on its clock site,
// and a give-up does not mean the clock never acted: it may have
// shipped this site a copy the library's record will not list. That
// copy is dropped, here if it came first and in handlePageSend if it
// comes later.
func (e *Engine) handleDenied(sn *segNode, m *wire.Msg) {
	e.count(obs.CDenied)
	if m.Mode == wire.Read && m.Cycle != 0 {
		r := sn.pages[m.Page].relPart()
		r.denied = m.Cycle
		if r.readCycle == m.Cycle && sn.m.Prot(int(m.Page)) == mmu.ReadOnly {
			e.drop(sn, m.Page, m.Cycle, true)
		}
	}
	e.failPage(sn, m.Seg, m.Page, fmt.Errorf("%w: library denied %v of seg %d page %d", ErrUnreachable, m.Mode, m.Seg, m.Page))
}

// libAbortCycle abandons the in-flight grant cycle for a page: the
// requesters it served are denied (they surface errors or retry), the
// authoritative record stays as it was, and the queue continues — the
// library's half of the degraded-grant path.
func (e *Engine) libAbortCycle(sn *segNode, page int32) {
	if sn.lib == nil {
		return
	}
	p := &sn.lib.pages[page]
	if !p.grant.active {
		e.markStale()
		return
	}
	if g := p.endCycle(); g.write {
		e.libDeny(sn, page, g.to, wire.Write, false)
	} else {
		g.batch.ForEach(func(s int) { e.libDeny(sn, page, s, wire.Read, false) })
	}
	// The cycle's logged intent is void: log the unchanged record so an
	// elected successor does not probe (or adopt) a grant that died here.
	e.replAppendSet(sn, page)
	e.libProcess(sn, page)
}

// libDeny tells a requester its request failed, in the page's current
// cycle at a library. drop hints that the requester's stale read copy
// was superseded (the library rehomed the page) and must be discarded.
func (e *Engine) libDeny(sn *segNode, page int32, site int, mode wire.Mode, drop bool) {
	m := &wire.Msg{Kind: wire.KDenied, Mode: mode, Upgrade: drop, Seg: int32(sn.meta.ID), Page: page}
	if sn.lib != nil {
		m.Cycle = sn.lib.pages[page].cycle
	}
	e.send(site, m)
}

// handleGrantFail runs at the library when a grant could not complete.
// At a non-library site (the clock) it relays an upgrade that landed on
// an invalid copy, attaching the frame captured when the cycle was
// accepted so the library can rehome the page.
func (e *Engine) handleGrantFail(sn *segNode, m *wire.Msg) {
	if sn.lib == nil {
		if sn.curLib == e.site {
			// Mid-takeover (the role is claimed but the record is not
			// installed yet) the failed cycle belongs to the old record and
			// cannot be matched after the install; forwarding would loop
			// the message back here at zero cost. Drop it — the denied
			// requester's timeout backstop re-drives the page.
			e.markStale()
			return
		}
		fwd := *m
		fwd.Data = sn.pages[m.Page].relPart().stash
		e.send(sn.curLib, &fwd)
		return
	}
	p := &sn.lib.pages[m.Page]
	if !p.grant.active || m.Cycle != p.cycle {
		e.markStale()
		return
	}
	g := p.grant
	switch {
	case m.Mode == wire.Read && m.Req >= 0 && !g.write:
		// One reader of the batch is unreachable; the rest proceed.
		if !g.batch.Has(int(m.Req)) {
			e.markStale()
			return
		}
		p.grant.batch = g.batch.Remove(int(m.Req))
		e.libDeny(sn, m.Page, int(m.Req), wire.Read, false)
		e.libInstalled(sn, m.Page)

	case g.write && len(m.Data) > 0:
		// The grant carried the only current copy (or, for an upgrade,
		// the clock's captured frame): rehome it so the data survives
		// and the page stays grantable. The requester's stale read copy,
		// if any, is superseded — the denial says to drop it. With a
		// replicated record the rehome waits for the group like a cycle
		// does: a library the group has replaced installs nothing.
		data := append([]byte(nil), m.Data...)
		e.replGate(sn, m.Page, e.site, e.site, mmu.Copyset{}, func() {
			p.endCycle()
			e.libReclaim(sn, m.Page, data)
			e.libDeny(sn, m.Page, g.to, wire.Write, m.Upgrade)
			e.libProcess(sn, m.Page)
		})

	default:
		// Whole-cycle abort before any data moved (the clock rolled
		// back, or never acted): record unchanged, requesters denied.
		e.libAbortCycle(sn, m.Page)
	}
}
