package core

import (
	"fmt"
	"time"

	"mirage/internal/mem"
	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/wire"
)

// reqKind discriminates entries in a library page queue.
type reqKind int

const (
	reqRead reqKind = iota
	reqWrite
	reqReleaseRead
	reqReleaseWrite
)

// libReq is one queued request at the library.
type libReq struct {
	kind reqKind
	site int
	data []byte // release payload
}

// grantCycle is the library's share of the grant in flight for a page:
// the zero value is a page with none, and endCycle is the one way a
// cycle ends.
type grantCycle struct {
	active      bool
	write       bool
	to          int         // new writer (write grants)
	batch       mmu.Copyset // new readers (read grants)
	oldWrite    bool        // a writer was downgraded by this read grant
	oldClock    int
	installs    int       // KInstalled still due
	inval       *wire.Msg // retained for Δ retries
	cancelRetry func()    // the Δ retry a KBusy armed, nil when none is
}

// libPage is the library's authoritative state for one page: the
// record that outlives this site's stay as library (§6.0: "record
// which sites are storing a given page", distinguishing writers from
// readers; see libRecord) and the state of the grant cycle in flight,
// which does not.
type libPage struct {
	libRecord

	queue []libReq
	grant grantCycle
	// cycle numbers grant cycles; grants carry it and completions echo
	// it back, so the reliability layer can discard stragglers from
	// cycles that were since aborted.
	cycle uint32

	// AutoDelta controller state: tuned marks the first-grant clamp
	// done; tuneAt/tuneCycle/tuneDenied snapshot the last adjustment
	// for rate limiting (see retune). Deliberately not part of
	// the record — a successor restarts its cooldown fresh.
	tuned      bool
	tuneAt     time.Duration
	tuneCycle  uint32
	tuneDenied int
}

// libSeg is the library-site state for one segment.
type libSeg struct {
	pages []libPage
}

func newLibSeg(meta *mem.Segment) *libSeg {
	l := &libSeg{pages: make([]libPage, meta.Pages)}
	for i := range l.pages {
		l.pages[i].libRecord = freshRecord(meta, i)
	}
	return l
}

// LibraryPageState is a read-only snapshot for tests and diagnostics.
type LibraryPageState struct {
	Readers mmu.Copyset
	Writer  int
	Clock   int
	Delta   time.Duration
	Queued  int
	Busy    bool

	// Tuning signals (DESIGN.md §16).
	Denied          int
	DenialRemaining time.Duration
	WriteSharing    bool
}

// LibraryState returns the library's view of a page. It panics when
// called at a non-library site: that is a test bug.
func (e *Engine) LibraryState(seg, page int32) LibraryPageState {
	sn := e.segs[seg]
	if sn == nil || sn.lib == nil {
		panic(fmt.Sprintf("core: LibraryState at non-library site %d", e.site))
	}
	p := &sn.lib.pages[page]
	return LibraryPageState{
		Readers: p.readers, Writer: p.writer, Clock: p.clock,
		Delta: p.delta, Queued: len(p.queue), Busy: p.grant.active,
		Denied: p.denied, DenialRemaining: p.denRemEWMA,
		WriteSharing: p.flipEWMA >= flipScale/2,
	}
}

// ErrNegativeDelta rejects a negative Δ: the window is a duration, and
// a negative one would corrupt every expiry comparison downstream
// (WindowRemaining, the checker's window invariant, the tuner's EWMA).
var ErrNegativeDelta = fmt.Errorf("core: negative Δ")

// ErrNotLibrary rejects a Δ change at a site that is not the segment's
// library now: Δ lives in the library's page records, and the role
// moves (failover, election, migration), so "the library site" is
// wherever it currently is, not where the segment was created.
var ErrNotLibrary = fmt.Errorf("core: not the segment's library site")

// libraryOf returns the segment's state if this site is its library.
func (e *Engine) libraryOf(seg int32) (*segNode, error) {
	sn := e.segs[seg]
	if sn == nil || sn.lib == nil {
		return nil, fmt.Errorf("%w: site %d, seg %d", ErrNotLibrary, e.site, seg)
	}
	return sn, nil
}

// SetPageDelta changes one page's Δ at the library (§8.0: "per-page
// Δs may be useful"). It takes effect on the next grant. Negative
// values are rejected with ErrNegativeDelta, an unknown segment or a
// site that is not its library with ErrNotLibrary, leaving Δ unchanged.
// Under AutoDelta the controller clamps what is set here into its band
// at the next grant.
//
// The segment-wide meta.Delta is deliberately untouched: it is the
// segment *default*, seeding pages whose tuned value is unknown — not
// a summary of what pages are granted with. Per-page truth lives in
// the page records (LibraryState reads it).
func (e *Engine) SetPageDelta(seg, page int32, delta time.Duration) error {
	if delta < 0 {
		return fmt.Errorf("%w: %v for seg %d page %d", ErrNegativeDelta, delta, seg, page)
	}
	sn, err := e.libraryOf(seg)
	if err != nil {
		return err
	}
	sn.lib.pages[page].delta = delta
	// Δ retunes replicate fire-and-forget: losing one across a takeover
	// costs tuning quality, never coherence.
	e.replAppendSet(sn, page)
	return nil
}

// SetSegmentDelta changes Δ for every page of the segment and resets
// the segment default (meta.Delta) that a takeover seeds unlogged
// pages with. It fails as SetPageDelta does.
func (e *Engine) SetSegmentDelta(seg int32, delta time.Duration) error {
	if delta < 0 {
		return fmt.Errorf("%w: %v for seg %d", ErrNegativeDelta, delta, seg)
	}
	sn, err := e.libraryOf(seg)
	if err != nil {
		return err
	}
	for i := range sn.lib.pages {
		sn.lib.pages[i].delta = delta
		e.replAppendSet(sn, int32(i))
	}
	sn.meta.Delta = delta
	return nil
}

// handleLibrary dispatches messages addressed to the library role.
func (e *Engine) handleLibrary(sn *segNode, m *wire.Msg) {
	if sn.lib == nil {
		if e.fence {
			// A requester addressed us as library at the current epoch but
			// the role lives elsewhere. Reachable when the sender adopted
			// the epoch from a message that does not name the library
			// (adoptAhead keeps its stale belief) — after a voluntary
			// migration nobody broadcasts the new identity, so a silent
			// drop would strand the request until the RequestTimeout
			// backstop. Redirect to this site's own belief; chained
			// handoffs resolve hop by hop, each under a fresh notice.
			if sn.curLib != e.site {
				e.staleEpoch(sn, m)
				return
			}
			e.markStale()
			return
		}
		panic(fmt.Sprintf("core: site %d is not the library for: %v", e.site, m))
	}
	lib := sn.lib
	p := &lib.pages[m.Page]
	switch m.Kind {
	case wire.KReadReq, wire.KWriteReq:
		// The arrival is on record once, as handle's EvMsgRecv: the §9.0
		// reference log is a view of the trace (obs.Summarize). Feed the
		// placement policy before queueing: if a migration
		// starts here the request joins the frozen queue and is re-aimed
		// at the successor when the handoff commits.
		e.noteDemand(sn, int(m.From))
		e.replRetry(sn)
		kind := reqRead
		if m.Kind == wire.KWriteReq {
			kind = reqWrite
		}
		p.queue = append(p.queue, libReq{kind: kind, site: int(m.From)})
		e.libProcess(sn, m.Page)

	case wire.KReleaseRead, wire.KReleaseWrite:
		kind := reqReleaseRead
		if m.Kind == wire.KReleaseWrite {
			kind = reqReleaseWrite
		}
		p.queue = append(p.queue, libReq{
			kind: kind, site: int(m.From), data: append([]byte(nil), m.Data...),
		})
		e.libProcess(sn, m.Page)

	case wire.KInstalled:
		if p.grant.installs <= 0 || m.Cycle != p.cycle {
			// A completion from an aborted cycle, or a duplicate that
			// survived give-up: harmless once denial went out.
			e.tolerate("unexpected installed", m)
			return
		}
		e.libInstalled(sn, m.Page)

	case wire.KBusy:
		if !p.grant.active || m.Cycle != p.cycle {
			e.tolerate("busy with no cycle", m)
			return
		}
		e.count(obs.CRetry)
		e.countN(obs.CWindowWait, int64(m.Remaining))
		// The library's only denial signal is this KBusy (PolicyQueue
		// absorbs waits at the clock site and never sends one). Feed the
		// per-page tuning record the clock site's global counters
		// (delta_denials / denial_remaining_ns) already see.
		p.denied++
		if p.denRemEWMA == 0 {
			p.denRemEWMA = m.Remaining
		} else {
			p.denRemEWMA = (3*p.denRemEWMA + m.Remaining) / 4
		}
		e.emit(obs.Event{Type: obs.EvRetry, Seg: m.Seg, Page: m.Page, Cycle: m.Cycle,
			Arg: int64(m.Remaining)})
		lib, inval := sn.lib, p.grant.inval
		p.grant.cancelRetry = e.after(sn, m.Remaining, func() {
			// endCycle cancels the retry, but for the one thing that ends
			// every cycle at once: adoptEpoch drops a deposed library's
			// record without visiting its pages.
			if sn.lib != lib {
				return
			}
			p.grant.cancelRetry = nil
			e.send(p.clock, inval)
		})

	default:
		panic(fmt.Sprintf("core: handleLibrary: %v", m))
	}
}

// libProcess drains a page's queue: it starts grant cycles until one
// is in flight or the queue is empty. Write requests are processed
// sequentially; all queued read requests are batched and granted
// together (§6.1).
func (e *Engine) libProcess(sn *segNode, page int32) {
	if sn.migOut != nil {
		// Frozen for an in-flight migration offer: queued requests are
		// either re-aimed at the successor (handoff commits) or served
		// when the offer aborts and libProcess re-runs.
		return
	}
	lib := sn.lib
	p := &lib.pages[page]
	for !p.grant.active && len(p.queue) > 0 {
		head := p.queue[0]
		switch head.kind {
		case reqRead:
			batch := e.libCollectReads(sn, page)
			if batch.Empty() {
				continue
			}
			e.libStartReadCycle(sn, page, batch)
		case reqWrite:
			p.dequeue()
			if head.site == p.writer {
				e.libAlready(sn, page, head.site, wire.Write)
				continue
			}
			e.libStartWriteCycle(sn, page, head.site)
		case reqReleaseRead, reqReleaseWrite:
			p.dequeue()
			e.libProcessRelease(sn, page, head)
		}
	}
}

// dequeue removes the queue's head. The queue keeps its array, so a
// page's steady stream of requests appends without allocating; the
// vacated entry lets its release payload go.
func (p *libPage) dequeue() {
	n := copy(p.queue, p.queue[1:])
	p.queue[n] = libReq{}
	p.queue = p.queue[:n]
}

// libCollectReads removes every read request from the queue, in place,
// replies KAlready to already-satisfied ones, and returns the batch to
// grant together (§6.1: "Read requests for the same page are batched
// together and granted to all the readers at one time").
func (e *Engine) libCollectReads(sn *segNode, page int32) mmu.Copyset {
	p := &sn.lib.pages[page]
	var batch mmu.Copyset
	rest := p.queue[:0]
	for _, r := range p.queue {
		if r.kind != reqRead {
			rest = append(rest, r)
			continue
		}
		if batch.Has(r.site) {
			continue // duplicate; one grant covers it
		}
		if p.readers.Has(r.site) || r.site == p.writer {
			e.libAlready(sn, page, r.site, wire.Read)
			continue
		}
		batch = batch.Add(r.site)
	}
	clear(p.queue[len(rest):])
	p.queue = rest
	return batch
}

// libAlready tells a requester its request is already satisfied.
func (e *Engine) libAlready(sn *segNode, page int32, site int, mode wire.Mode) {
	e.send(site, &wire.Msg{Kind: wire.KAlready, Mode: mode, Seg: int32(sn.meta.ID), Page: page})
}

// libTunedDelta returns the Δ to grant with: the controller's when
// AutoDelta is on, else the page's stored one (§8.0: "the page's Δ
// value can be changed before it is forwarded"). It runs at cycle open,
// so a tuned value lands on this cycle's invalidation and in its
// replicated post-record.
func (e *Engine) libTunedDelta(sn *segNode, page int32) time.Duration {
	if e.auto != nil {
		return e.retune(sn, page)
	}
	return sn.lib.pages[page].delta
}

// libStartReadCycle grants a batch of readers (Table 1 rows
// Readers/Readers and Writer/Readers).
func (e *Engine) libStartReadCycle(sn *segNode, page int32, batch mmu.Copyset) {
	p := &sn.lib.pages[page]
	delta := e.libTunedDelta(sn, page)
	p.cycle++
	e.count(obs.CGrantCycle)
	e.emit(obs.Event{Type: obs.EvGrantStart, Seg: int32(sn.meta.ID), Page: page, Cycle: p.cycle})
	p.grant = grantCycle{active: true, batch: batch, installs: batch.Count()}
	if p.writer != mmu.NoWriter {
		// Downgrade the writer; it becomes (and stays) the clock site.
		p.grant.oldWrite, p.grant.oldClock = true, p.writer
		p.grant.inval = &wire.Msg{
			Kind: wire.KInval, Mode: wire.Read, Seg: int32(sn.meta.ID), Page: page,
			Readers: batch, Delta: delta, Cycle: p.cycle,
		}
		e.replGateCycleOpen(sn, page, p.writer, p.grant.inval,
			mmu.NoWriter, p.writer, mmu.CopysetOf(p.writer).Union(batch))
		return
	}
	// Pure reader extension: no clock check, no invalidation.
	e.replGateCycleOpen(sn, page, p.clock, &wire.Msg{
		Kind: wire.KAddReader, Seg: int32(sn.meta.ID), Page: page,
		Readers: batch, Delta: delta, Cycle: p.cycle,
	}, p.writer, p.clock, p.readers.Union(batch))
}

// libStartWriteCycle grants the writable copy to site `to` (Table 1
// rows Readers/Writer and Writer/Writer).
func (e *Engine) libStartWriteCycle(sn *segNode, page int32, to int) {
	p := &sn.lib.pages[page]
	delta := e.libTunedDelta(sn, page)
	upgrade := p.readers.Has(to)
	p.cycle++
	e.count(obs.CGrantCycle)
	e.emit(obs.Event{Type: obs.EvGrantStart, Seg: int32(sn.meta.ID), Page: page,
		To: int32(to), Cycle: p.cycle, Arg: 1})
	p.grant = grantCycle{
		active: true, write: true, to: to, installs: 1,
		inval: &wire.Msg{
			Kind: wire.KInval, Mode: wire.Write, Seg: int32(sn.meta.ID), Page: page,
			Req: int32(to), Upgrade: upgrade, Readers: p.readers, Delta: delta,
			Cycle: p.cycle,
		},
	}
	e.replGateCycleOpen(sn, page, p.clock, p.grant.inval, to, to, mmu.Copyset{})
}

// endCycle ends the page's grant cycle, whatever ends it — the last
// install, an abort, a rehome — and returns it. A Δ retry the cycle
// armed is cancelled with it.
func (p *libPage) endCycle() grantCycle {
	g := p.grant
	if g.cancelRetry != nil {
		g.cancelRetry()
	}
	p.grant = grantCycle{}
	return g
}

// libInstalled counts off one install the page's cycle waits for — a
// KInstalled, or a reader of the batch that could not be reached — and
// with the last one commits the grant and serves the queue on.
func (e *Engine) libInstalled(sn *segNode, page int32) {
	p := &sn.lib.pages[page]
	p.grant.installs--
	if p.grant.installs > 0 {
		return
	}
	g := p.endCycle()
	e.emit(obs.Event{Type: obs.EvGrantEnd, Seg: int32(sn.meta.ID), Page: page, Cycle: p.cycle})
	if g.write {
		p.writer = g.to
		p.readers = mmu.Copyset{}
		p.clock = g.to
		// Write-sharing indicator: fold whether this write grant changed
		// hands into the fixed-point flip EWMA. Alternating writers
		// (ping-pong) drive it toward flipScale; a stable writer decays
		// it toward zero. Read grants don't fold in — read batching is
		// already the protocol's answer to read sharing.
		if p.lastWriter != mmu.NoWriter {
			flip := 0
			if g.to != p.lastWriter {
				flip = flipScale
			}
			p.flipEWMA = (3*p.flipEWMA + flip) / 4
		}
		p.lastWriter = g.to
	} else if g.oldWrite {
		p.readers = mmu.CopysetOf(g.oldClock).Union(g.batch)
		p.writer = mmu.NoWriter
		p.clock = g.oldClock
	} else {
		p.readers = p.readers.Union(g.batch)
	}
	// The committed record supersedes the cycle's intent in the log.
	e.replAppendSet(sn, page)
	e.libProcess(sn, page)
}
