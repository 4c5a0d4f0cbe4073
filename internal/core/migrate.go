package core

import (
	"cmp"
	"time"

	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/wire"
)

// Voluntary library migration (DESIGN.md §14).
//
// The paper fixes a segment's library site for life (§6.0); failover
// (DESIGN.md §11) lets it move on crash, never for performance. Here
// the library itself elects to rehome the role to the segment's hottest
// requester, reusing the failover epoch fence: the old library A, once
// the segment is quiescent, ships its page records to the successor B
// inline (KMigrate chunks — transferred, not reconstructed from holder
// reports), B installs them under epoch E+1 and confirms (KMigrateAck),
// and A deposes itself, converting every request that arrived while the
// transfer was in flight into an epoch notice so the requester re-aims
// at B. Stragglers still addressing A are fenced by the ordinary
// stale-epoch path. Unlike a crash takeover nothing is rebuilt, no page
// moves, and no copy is lost: the record is authoritative at the moment
// of transfer because migration only starts when no grant cycle is
// running and no request is queued.
//
// The decision is a pluggable policy (Options.Placement) evaluated
// inline on request arrival at the library — no timers, so simulated
// runs stay deterministic and an idle segment pays nothing.

// Placement configures the voluntary-migration policy: the library
// tracks per-site request demand for each segment in sliding windows
// and offers the library role to a remote site that dominates the
// window. Requires Options.Failover (and therefore Reliability): the
// handoff is built on the library-epoch fence.
type Placement struct {
	// Window is the demand-sampling period; the policy is evaluated at
	// the first request after each window elapses. Default 250ms.
	Window time.Duration
	// MinRequests is the minimum demand in a window before migration is
	// considered, so an idle segment never migrates on noise. Default 32.
	MinRequests int
	// Share is the fraction of the window's requests the hottest remote
	// site must account for. Default 0.6.
	Share float64
	// PingPong suppresses migration when the runner-up site's demand is
	// at least this fraction of the leader's: two sites alternating on
	// the same pages is write sharing, where moving the library just
	// moves the losing side and the Δ window already amortizes the
	// conflict. Default 0.8.
	PingPong float64
	// Cooldown is the minimum time between migrations of one segment at
	// one site (hysteresis against thrashing). A site that just accepted
	// the role starts its cooldown at the installation. Default 1s.
	Cooldown time.Duration
}

func (p Placement) withDefaults() Placement {
	p.Window = cmp.Or(p.Window, 250*time.Millisecond)
	p.MinRequests = cmp.Or(p.MinRequests, 32)
	p.Share = cmp.Or(p.Share, 0.6)
	p.PingPong = cmp.Or(p.PingPong, 0.8)
	p.Cooldown = cmp.Or(p.Cooldown, time.Second)
	return p
}

// placeTrack is the library's per-segment demand window.
type placeTrack struct {
	demand      map[int]int
	total       int
	windowStart time.Duration
	lastMove    time.Duration
}

// migration is the old library's in-flight outbound offer.
type migration struct {
	target  int
	started time.Duration
	cancel  func() // offer timeout
}

// noteDemand records one library request for the placement policy and
// evaluates the policy at window boundaries. Called before the request
// is queued: if a migration starts here, the triggering request joins
// the frozen queue and is re-aimed at the successor at depose time.
func (e *Engine) noteDemand(sn *segNode, from int) {
	if e.placement == nil || sn.migOut != nil {
		return
	}
	now := e.env.Now()
	pl := sn.place
	if pl == nil {
		pl = &placeTrack{demand: make(map[int]int), windowStart: now}
		sn.place = pl
	}
	pl.demand[from]++
	pl.total++
	if now-pl.windowStart < e.placement.Window {
		return
	}
	e.evalPlacement(sn, pl, now)
	pl.demand = make(map[int]int)
	pl.total = 0
	pl.windowStart = now
}

// evalPlacement applies the policy to one completed demand window.
// Sites are scanned in ID order so the decision is replay-deterministic.
func (e *Engine) evalPlacement(sn *segNode, pl *placeTrack, now time.Duration) {
	p := e.placement
	if pl.total < p.MinRequests {
		return
	}
	if pl.lastMove != 0 && now-pl.lastMove < p.Cooldown {
		return
	}
	lead, leadN, runN := -1, 0, 0
	for s := 0; s < e.sites; s++ {
		n := pl.demand[s]
		if n == 0 {
			continue
		}
		if n > leadN {
			runN = leadN
			lead, leadN = s, n
		} else if n > runN {
			runN = n
		}
	}
	if lead < 0 || lead == e.site {
		return
	}
	if float64(leadN) < p.Share*float64(pl.total) {
		return
	}
	if float64(runN) >= p.PingPong*float64(leadN) {
		return // ping-pong write sharing: Δ wins, moving the library loses
	}
	if !e.segQuiescent(sn) {
		return
	}
	pl.lastMove = now
	e.startMigration(sn, lead, now)
}

// segQuiescent reports whether the segment can migrate right now: this
// site is its (non-recovering) library and no page has a grant cycle in
// flight or a request queued. Quiescence is what lets the record
// transfer be exact — there is no in-flight state to reconcile.
func (e *Engine) segQuiescent(sn *segNode) bool {
	if sn.lib == nil || sn.recov != nil || sn.migOut != nil {
		return false
	}
	for i := range sn.lib.pages {
		p := &sn.lib.pages[i]
		if p.grant.active || len(p.queue) > 0 {
			return false
		}
	}
	return true
}

// startMigration freezes the segment and offers the library role to
// target. While the offer is in flight the library stays authoritative
// but grants nothing: arriving requests queue frozen and are converted
// to epoch notices at depose time.
func (e *Engine) startMigration(sn *segNode, target int, now time.Duration) {
	mig := &migration{target: target, started: now}
	sn.migOut = mig
	e.sendOffer(sn, target)
	mig.cancel = e.after(sn, e.failover.RecoverTimeout, func() { e.abortMigration(sn, true) })
}

// sendOffer ships every page record to the successor as one chunked
// KMigrate payload of full-form records (appendRecord). The tuning
// fields are what make a rehomed library warm: without them the
// successor restarted cold and the Δ controller relearned a page it had
// already converged. The last chunk's SegEpoch (stamped by transmit) is
// the epoch the successor's installation must exceed.
func (e *Engine) sendOffer(sn *segNode, target int) {
	pages := sn.lib.pages
	tmpl := wire.Msg{Kind: wire.KMigrate, Seg: int32(sn.meta.ID), Page: -1, Req: int32(target)}
	e.sendChunked(target, tmpl, nil, len(pages), func(m *wire.Msg, i int) {
		m.Data = appendRecord(m.Data, &pages[i].libRecord, true)
	})
}

// abortMigration cancels an in-flight offer and resumes granting. A
// refusal (KMigrateAck Page -1) or a give-up on the offer circuit
// proves the successor never installed — the final chunk never landed —
// so the epoch stands. A timeout proves nothing: the successor may hold
// the role at E+1 with only the ack lost, so the library jumps to E+2,
// fencing that installation the moment it touches any other site.
func (e *Engine) abortMigration(sn *segNode, timedOut bool) {
	mig := sn.migOut
	if mig == nil {
		return
	}
	if mig.cancel != nil {
		mig.cancel()
	}
	sn.migOut = nil
	e.count(obs.CMigrationRefused)
	if timedOut {
		sn.segEpoch.Add(2)
	}
	for pg := range sn.lib.pages {
		e.libProcess(sn, int32(pg))
	}
}

// handleMigrate runs at the offered successor. It is dispatched before
// the generic epoch fence (like KRecover) so epoch skew resolves here:
// an offer from a superseded epoch is refused, an offer ahead of this
// site moves it forward first. A refusal (KMigrateAck Page -1) leaves
// this site untouched and the old library granting at its own epoch.
func (e *Engine) handleMigrate(sn *segNode, m *wire.Msg) {
	from := int(m.From)
	refuse := func() { e.send(from, &wire.Msg{Kind: wire.KMigrateAck, Seg: m.Seg, Page: -1}) }
	if m.SegEpoch < sn.segEpoch.Load() {
		e.markStale()
		refuse()
		return
	}
	if m.SegEpoch > sn.segEpoch.Load() {
		e.adoptEpoch(sn, m.SegEpoch, from)
	}
	if sn.lib != nil || sn.recov != nil || sn.releasing() {
		// Already the library (a duplicate or raced offer), mid-takeover,
		// or detaching: not a home for the role.
		refuse()
		return
	}
	data, whole := sn.reassemble(m, 0)
	if !whole {
		return
	}
	src, err := e.offerSource(sn, m, data)
	if err == nil {
		err = e.installLibrary(sn, src)
	}
	if err != nil {
		// A damaged offer installs nothing, not the part that parsed.
		e.markStale()
		refuse()
	}
}

// offerSource is the third rehoming source (DESIGN.md §14): the old
// library's own record of a quiescent segment, transferred rather than
// reconstructed, so it is exact and the old library is alive. The epoch
// is created at the installation, not at the offer: no site can address
// this site as the E+1 library before the record exists.
func (e *Engine) offerSource(sn *segNode, m *wire.Msg, data []byte) (libSource, error) {
	var recs []libRecord
	for len(data) > 0 {
		r, n, err := decodeRecord(data, true)
		if err != nil {
			return libSource{}, err
		}
		data = data[n:]
		recs = append(recs, r)
	}
	from := int(m.From)
	return libSource{recs: recs, prev: from, exact: true, epoch: m.SegEpoch + 1, announce: func() {
		e.count(obs.CMigration)
		e.emit(obs.Event{Type: obs.EvMigrate, Seg: m.Seg, Arg: int64(from)})
		e.send(from, &wire.Msg{Kind: wire.KMigrateAck, Seg: m.Seg, Page: 0})
	}}, nil
}

// handleMigrateAck runs at the old library: a refusal resumes granting
// under the unchanged epoch; an acceptance deposes this site and
// re-aims everything that queued during the transfer at the successor.
func (e *Engine) handleMigrateAck(sn *segNode, m *wire.Msg) {
	mig := sn.migOut
	if mig == nil || int(m.From) != mig.target {
		e.markStale()
		return
	}
	if m.Page < 0 {
		e.abortMigration(sn, false)
		return
	}
	if m.SegEpoch <= sn.segEpoch.Load() {
		e.markStale()
		return
	}
	e.obs.Observe(obs.HMigrateLatency, int64(e.env.Now()-mig.started))
	// Collect the frozen queue's requesters before adoptEpoch drops the
	// record (and, with it, the committed offer and its timer).
	// Read/write requesters re-request at the successor when the notice
	// moves them forward; releasing sites re-issue their releases from
	// adoptEpoch's own releasing path.
	var notify mmu.Copyset
	for pg := range sn.lib.pages {
		for _, r := range sn.lib.pages[pg].queue {
			if r.site != e.site {
				notify = notify.Add(r.site)
			}
		}
	}
	e.adoptEpoch(sn, m.SegEpoch, mig.target)
	notify.ForEach(func(s int) {
		e.send(s, &wire.Msg{Kind: wire.KRecover, Seg: m.Seg, Page: -1, Req: int32(mig.target)})
	})
}
