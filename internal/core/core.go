// Package core implements the Mirage distributed shared memory
// protocol (paper §6): the library site that queues and sequentially
// processes page requests, the clock site that holds each page's time
// window Δ, invalidation with the two-attempt retry, and the two
// traffic optimizations (silent reader→writer upgrade; writer→reader
// downgrade retaining the read copy).
//
// One Engine runs per site and plays every role the site can have:
// requester (faulting processes), holder (reader or writer of pages),
// clock site, and — for segments the site created — library. Engines
// are passive, deterministic state machines: they are driven entirely
// through Fault, Deliver, and the segment lifecycle calls, and they
// act on the world only through the Env interface. The same engine
// therefore runs unchanged on the calibrated VAX/Ethernet simulator
// (internal/netsim + internal/sched) and on real transports
// (internal/transport) under the public mirage package.
//
// Engines are not safe for concurrent use; each driver serializes
// calls (the simulator by construction, a live node with its site's
// turn, which whichever goroutine a step lands on may hold). The one
// exception is a Mapping, through which a live accessor checks and
// holds a resident page on its own goroutine.
package core

import (
	"cmp"
	"fmt"
	"sync/atomic"
	"time"

	"mirage/internal/mem"
	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/vaxmodel"
	"mirage/internal/wire"
)

// NetMsg is any protocol message a transport can carry; Size (the
// payload bytes) drives the network cost model. Both the Mirage wire
// messages and the IVY baseline's messages implement it.
type NetMsg interface{ Size() int }

// Env is the world an Engine acts through.
type Env interface {
	// Site returns this engine's site ID.
	Site() int
	// Now returns the current time (virtual in simulation, monotonic
	// wall time live). Δ windows are measured in real time (§9.0).
	Now() time.Duration
	// After schedules fn after d; the returned function cancels. Both
	// fn and cancel run serialized with every other engine call, and a
	// cancel before fn has started means fn never runs: the engine
	// keeps no guard of its own against a timer it cancelled.
	After(d time.Duration, fn func()) (cancel func())
	// Send transmits a protocol message to a site (possibly this one;
	// loopback must deliver with no network charge).
	Send(to int, m NetMsg)
	// Exec runs fn after charging cost of CPU service time at this
	// site. Live environments may ignore cost and run fn directly, but
	// must still serialize all engine entry points.
	Exec(cost time.Duration, fn func())
}

// InvalPolicy selects how an unexpired Δ window is handled when an
// invalidation arrives at the clock site.
type InvalPolicy int

const (
	// PolicyRetry is the paper prototype's behaviour: the clock site
	// replies with the remaining time and the library retries after it
	// (the "two attempts to invalidate a page" caveat of §7.1).
	PolicyRetry InvalPolicy = iota
	// PolicyHonorClose implements §7.1's recommendation: if no more than
	// one short-message round trip (vaxmodel.ShortRTT) remains, the clock
	// site delays locally and then honors the invalidation instead of
	// forcing a retry.
	PolicyHonorClose
	// PolicyQueue is the "queued invalidation optimization" the paper
	// notes its implementation lacks: the clock site always queues the
	// invalidation and honors it exactly at window expiry.
	PolicyQueue
)

func (p InvalPolicy) String() string {
	switch p {
	case PolicyRetry:
		return "retry"
	case PolicyHonorClose:
		return "honor-close"
	case PolicyQueue:
		return "queue"
	}
	return fmt.Sprintf("InvalPolicy(%d)", int(p))
}

// Costs are the CPU service charges the engine pays through Env.Exec.
type Costs struct {
	Request    time.Duration // issue a remote page request (Table 3: 2.5 ms)
	Server     time.Duration // library handling of one message (Table 3: 1.5 ms)
	Install    time.Duration // install a received page (Table 3: 2 ms)
	Input      time.Duration // other protocol input interrupts (§7.2: 1.5 ms)
	LocalFault time.Duration // fault served by a colocated library (§7.2: 1.5 ms)
}

// DefaultCosts returns the paper-calibrated cost model.
func DefaultCosts() Costs {
	return Costs{
		Request:    vaxmodel.ReadRequestService,
		Server:     vaxmodel.ServerRequestService,
		Install:    vaxmodel.PageInstallService,
		Input:      vaxmodel.InputInterruptService,
		LocalFault: vaxmodel.LocalFaultService,
	}
}

// Options configure an Engine.
type Options struct {
	Policy InvalPolicy
	Costs  *Costs // nil means DefaultCosts
	// Sites is the cluster size, stated once: the successor walk, the
	// holder rebuild's query set, the follower groups and the ack-timeout
	// scale all read it, so every engine of a cluster must be given the
	// same value. ForCluster sets it; a caller building engines directly
	// sets it whenever it sets Failover, or Reliability at 16 sites and up.
	Sites int
	// Obs, when non-nil, receives protocol metrics and (if its Tracer
	// is set) structured coherence events. nil — the default — keeps
	// every hot path at a single pointer test and zero allocations.
	Obs *obs.Obs
	// Reliability, when non-nil, enables the reliable-delivery layer
	// and the degraded-grant recovery paths (DESIGN.md §7). nil keeps
	// the engine byte-identical to the paper reproduction, which
	// assumes the Locus virtual-circuit guarantees.
	Reliability *Reliability
	// Failover, when non-nil, enables library-site takeover (DESIGN.md
	// §11): a site that finds the library unreachable nominates a
	// successor, which rebuilds the record from surviving holders under
	// a bumped library epoch. Requires Reliability.
	Failover *Failover
	// Placement, when non-nil, enables voluntary library migration
	// (DESIGN.md §14): the library watches per-site request demand and
	// rehomes the library role to a remote site that dominates it, using
	// the failover epoch fence for the handoff. Requires Failover (and
	// therefore Reliability).
	Placement *Placement
	// Replication, when non-nil with Replicas > 0, mirrors every library
	// page-record mutation to a group of follower sites before the
	// mutation is acknowledged (DESIGN.md §15, docs/REPLICATION.md), so
	// a takeover installs the record from the replicated log instead of
	// interrogating every holder. Requires Failover (and therefore
	// Reliability); falls back to the legacy holder rebuild when the
	// group quorum is lost.
	Replication *Replication
	// AutoDelta, when non-nil, enables the built-in per-page closed-loop
	// Δ controller (DESIGN.md §16, docs/TUNING.md): the library watches
	// each page's denial signals and write-sharing pattern and walks Δ
	// toward the §7.2 crossover with an AIMD policy, clamped to
	// [Min, Max] and rate-limited. nil — the paper ships its tuning
	// routine disabled (§8.0) — grants every page its stored Δ.
	AutoDelta *AutoDelta
	// InvalFanout, when ≥ 2, turns write-grant invalidation into a
	// k-ary fan-out tree: the clock site partitions the reader set into
	// at most InvalFanout delegated subtrees, interior holder sites
	// relay the orders onward and return one aggregated ack each, so a
	// large invalidation costs the clock O(k) sends and O(log_k N)
	// latency instead of one unicast per reader. Values below 2 (the
	// default) keep the flat per-reader unicast of the paper.
	InvalFanout int
}

// ForCluster returns the options every engine of an n-site cluster is
// built with — the cluster size filled in — or an error naming the
// first invalid combination.
func (o Options) ForCluster(n int) (Options, error) {
	switch {
	case o.Failover != nil && o.Reliability == nil:
		return o, fmt.Errorf("Options.Failover requires Options.Reliability")
	case o.Placement != nil && o.Failover == nil:
		return o, fmt.Errorf("Options.Placement requires Options.Failover")
	}
	if rp := o.Replication; rp != nil {
		if rp.Replicas > 0 && o.Failover == nil {
			return o, fmt.Errorf("Options.Replication requires Options.Failover")
		}
		if rp.Replicas >= n {
			return o, fmt.Errorf("Options.Replication.Replicas %d must be below the cluster size %d", rp.Replicas, n)
		}
	}
	o.Sites = n
	return o, nil
}

// Stats is engine activity as Site.Stats() and the experiment tables
// read it: a view of the site's counters in the obs vocabulary
// (docs/OBSERVABILITY.md), all cumulative.
type Stats struct {
	ReadFaults     int
	WriteFaults    int
	RequestsSent   int // read+write requests issued (incl. loopback)
	PagesSent      int // KPageSend transmitted by this site
	PagesReceived  int
	Upgrades       int           // in-place reader→writer grants received
	Downgrades     int           // writer→reader transitions at this site
	InvalsReceived int           // KInval handled as clock site
	InvalOrders    int           // KInvalOrder received (copy discarded)
	BusyReplies    int           // KBusy sent (window unexpired, PolicyRetry)
	Retries        int           // invalidations re-sent by the library
	Already        int           // requests found already satisfied
	WindowWait     time.Duration // total time invalidations waited on Δ
	Dropped        int           // messages for unknown segments (post-destroy stragglers)

	// Reliability-layer counters; all zero unless Options.Reliability
	// is set.
	Retransmits int // sequenced messages re-sent after an ack timeout
	DupDrops    int // duplicate deliveries suppressed by the resequencer
	GaveUp      int // reliable-channel give-up events (peer unreachable)
	Denied      int // denials received for this site's requests
	Degraded    int // accessor-visible degraded-grant errors raised
	Stale       int // out-of-cycle or inconsistent messages tolerated
	Lost        int // pages zero-filled after unrecoverable copy loss
	Reissued    int // inval orders reissued as unicast: watchdog or relay give-up

	// Failover counters; all zero unless Options.Failover is set.
	Failovers  int // takeover triggers sent after losing the library
	Recoveries int // library takeovers completed at this site
	StaleEpoch int // messages rejected for carrying a superseded epoch

	// Placement counters; all zero unless Options.Placement is set.
	Migrations        int // library roles accepted here via voluntary migration
	MigrationsRefused int // outbound offers refused, aborted, or superseded

	// Replication counters; all zero unless Options.Replication is set.
	Appends      int // log entries appended by this site as leader
	ReplCommits  int // entries acknowledged by a follower quorum
	ReplDegraded int // gated mutations released without quorum (group degraded)
	Elections    int // takeovers completed from the replicated log at this site

	// AutoDelta counters; all zero unless Options.AutoDelta is set.
	DeltaGrows   int // controller raised a page's Δ (additive step)
	DeltaShrinks int // controller halved a page's Δ (multiplicative decrease)
}

// waiter is a blocked fault continuation.
type waiter struct {
	write bool
	wake  func()
}

// sitePage is what a site's engine tracks for one page while something
// is in flight for it: the engine's share of the paper's auxiliary
// page-table entry (§6.2, Table 2; DESIGN.md §19 sets it beside mmu.page
// and libPage). A new per-page field of the engine goes here and gets a
// line in reset — TestSitePageResetCoversEveryField fails until it has.
type sitePage struct {
	// This site's own faults, and the request made for them.
	waiters    []waiter // blocked faults; the backing array outlives a wake
	outR, outW bool     // read, write request outstanding

	// Other sites' grant cycles this site is serving.
	pend  *pendingInval // clock site: copies being collected for a write grant
	relay *invalRelay   // interior site: a delegated invalidation subtree

	// The reliability layer's share, nil until it first has something
	// to keep: the record is paid per page per attached site, and set
	// out flat these three fields are 40 of its 96 bytes.
	rel *pageRel
}

type pageRel struct {
	cancelReq func() // requests: the end-to-end deadline, nil when not armed
	err       error  // requests: the degraded-grant verdict the accessor has yet to take
	stash     []byte // cycles: the frame the clock site captured for an upgrade grant
}

// relPart returns the reliability layer's share of the record, made on
// first use.
func (sp *sitePage) relPart() *pageRel {
	if sp.rel == nil {
		sp.rel = new(pageRel)
	}
	return sp.rel
}

// takeErr returns and clears the page's degraded-grant verdict.
func (sp *sitePage) takeErr() error {
	if sp.rel == nil {
		return nil
	}
	err := sp.rel.err
	sp.rel.err = nil
	return err
}

// reset is the only code that ends in-flight state. Besides the blocked
// faults a record holds two kinds — this site's own requests (flags,
// deadline, verdict) and the cycles it serves for other sites
// (collection, relay, captured frame) — and the events that end state
// differ only in which they end (DESIGN.md §19 has the table): a library
// that moved within the epoch ends the requests, a superseded epoch
// both, an arriving role the cycles and, if the old library lives, the
// requests, destroy both. The blocked faults survive them all: the
// caller wakes them, to ask the current library again or to find the
// segment gone. reset returns the collection the caller owes a rollback.
func (sp *sitePage) reset(requests, cycles bool) (rolled *pendingInval) {
	r := sp.rel
	if requests {
		sp.outR, sp.outW = false, false
		if r != nil {
			if r.cancelReq != nil {
				r.cancelReq()
			}
			r.cancelReq, r.err = nil, nil
		}
	}
	if cycles {
		rolled = sp.pend
		sp.pend, sp.relay = nil, nil
		if r != nil {
			r.stash = nil
		}
	}
	return rolled
}

// segNode is per-site state for one attached segment.
type segNode struct {
	meta  *mem.Segment
	m     *mmu.Seg
	pages []sitePage // by page number, like m's

	lib *libSeg // non-nil at the library site

	// curLib is the site currently playing the library role: meta.Library
	// until a failover elects a successor. segEpoch is the library epoch —
	// bumped by each takeover and stamped on every outgoing message, so
	// traffic from superseded epochs can be fenced. recov is non-nil while
	// this site is obtaining the record as the successor, and partials
	// holds the chunked payloads (sendChunked) still arriving.
	curLib   int
	segEpoch atomic.Uint32 // written on the engine's goroutine; a Mapping reads it
	recov    *recovery
	partials map[partialKey]*partial

	// Between the last local detach and the library's confirmation of
	// every page release (releasesPending of them) the segment is
	// releasing: its page table is closed, so local accesses fault.
	releasesPending int

	// Voluntary-migration state (Options.Placement): place is the
	// library's demand window for the placement policy, migOut the
	// in-flight outbound offer (its presence freezes granting).
	place  *placeTrack
	migOut *migration

	// Replication state (Options.Replication): the per-segment log. At
	// the leader repl.lead is non-nil and gates record mutations on
	// quorum acks; at followers repl mirrors the applied record so an
	// election can install from it.
	repl *replSeg
}

// releasing reports whether the segment is between its last local
// detach and the library's confirmation of the release.
func (sn *segNode) releasing() bool { return sn.m.Closed() }

// Engine is one site's Mirage protocol instance.
type Engine struct {
	env   Env
	costs Costs
	site  int
	sites int // Options.Sites, the cluster size
	segs  map[int32]*segNode
	rel   *rel     // nil unless Options.Reliability set
	obs   *obs.Obs // nil when observability is off

	// The clock site's share of the options: how an unexpired window
	// answers an invalidation, and how wide one fans out.
	policy InvalPolicy
	fanout int

	// The one ledger (DESIGN.md §9): counts is this site's entry per
	// counter of the obs vocabulary, written by count and countN on the
	// engine's goroutine and read by Stats; reg, when observability is on
	// with a registry, receives the same entries.
	counts [obs.NumCounters]int64
	reg    *obs.Registry

	// The opt-in layers, resolved once by New: nil when off, defaults
	// filled in when on. auto is the Δ controller. Of the rehoming layers
	// each rests on the one before — Failover's trigger is the reliable
	// channel's give-up verdict, Placement and Replication ride Failover's
	// epoch fence — so each is non-nil only if it is configured AND
	// everything under it is: the engine asks one pointer per layer and
	// the answers cannot disagree. replication is nil with zero Replicas.
	auto        *AutoDelta
	failover    *Failover
	placement   *Placement
	replication *Replication
}

// New creates an engine for env's site.
func New(env Env, opt Options) *Engine {
	costs := DefaultCosts()
	if opt.Costs != nil {
		costs = *opt.Costs
	}
	e := &Engine{
		env:    env,
		costs:  costs,
		site:   env.Site(),
		sites:  opt.Sites,
		segs:   make(map[int32]*segNode),
		obs:    opt.Obs,
		policy: opt.Policy,
		fanout: opt.InvalFanout,
	}
	if opt.Obs != nil {
		e.reg = opt.Obs.Metrics
	}
	if opt.Reliability != nil {
		e.rel = newRel(e, opt.Reliability.withDefaults(opt.Sites))
	}
	if e.rel != nil && opt.Failover != nil {
		fo := *opt.Failover
		fo.RecoverTimeout = cmp.Or(fo.RecoverTimeout, 2*time.Second)
		e.failover = &fo
		if opt.Placement != nil {
			p := opt.Placement.withDefaults()
			e.placement = &p
		}
		if opt.Replication != nil && opt.Replication.Replicas > 0 {
			e.replication = opt.Replication
		}
	}
	if opt.AutoDelta != nil {
		ad := opt.AutoDelta.withDefaults()
		e.auto = &ad
	}
	return e
}

// Site returns the engine's site ID.
func (e *Engine) Site() int { return e.site }

// emit stamps the current time and this site onto ev and hands it to
// the tracer. When tracing is off it is a pointer test and a return;
// the Event value never escapes.
func (e *Engine) emit(ev obs.Event) {
	if !e.obs.Tracing() {
		return
	}
	var sn *segNode
	if e.failover != nil { // the only thing the segment is looked up for
		sn = e.segs[ev.Seg]
	}
	e.emitFor(sn, ev)
}

// emitFor is emit for a caller that knows the event's segment (nil if
// it is not attached here). It reads nothing the engine's goroutine
// writes but the epoch, so a Mapping may call it from any goroutine.
func (e *Engine) emitFor(sn *segNode, ev obs.Event) {
	ev.T = e.env.Now()
	ev.Site = int32(e.site)
	if sn != nil && e.failover != nil {
		ev.Epoch = sn.segEpoch.Load() // 0 until a first takeover
	}
	e.obs.Emit(ev)
}

// count and countN are the only code in this package that counts: one
// entry in the engine's own array — plain adds, so with observability
// off an event costs a nil test and no allocation — and the same entry
// in the registry when one is attached.
func (e *Engine) count(c obs.Counter) { e.countN(c, 1) }

func (e *Engine) countN(c obs.Counter, n int64) {
	e.counts[c] += n
	if e.reg != nil {
		e.reg.Add(e.site, c, n)
	}
}

// markStale counts a tolerated out-of-cycle or inconsistent message.
func (e *Engine) markStale() { e.count(obs.CStale) }

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters RecordOp
// digests op payloads with.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// RecordOp notes a completed application-level access for the coherence
// history checker: an EvRead/EvWrite trace event carrying the page
// range (From: offset, To: length) and an FNV-1a digest of the bytes as
// read or written. Access layers on the engine's goroutine call it
// after the data moved; a live accessor calls Mapping.RecordOp instead.
// With tracing off it is a pointer test and a return — zero
// allocations, like every other obs hook.
func (e *Engine) RecordOp(seg, page int32, off int, write bool, b []byte) {
	if !e.obs.Tracing() {
		return
	}
	e.emit(opEvent(seg, page, off, write, b))
}

func opEvent(seg, page int32, off int, write bool, b []byte) obs.Event {
	var h uint64 = fnvOffset
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	typ := obs.EvRead
	if write {
		typ = obs.EvWrite
	}
	return obs.Event{Type: typ, Seg: seg, Page: page,
		From: int32(off), To: int32(len(b)), Arg: int64(h)}
}

// Mapping is one attached segment as a live accessor sees it: enough
// to run a resident access without entering the engine (DESIGN.md
// §17). Unlike every other entry point, its methods are safe on any
// goroutine, and stay so after the segment is destroyed (every access
// then faults).
type Mapping struct {
	e  *Engine
	sn *segNode
}

// Map returns the segment's Mapping, or false if it is not attached
// here. Like the rest of the engine it runs on the engine's goroutine;
// the Mapping it returns does not have to.
func (e *Engine) Map(seg int32) (Mapping, bool) {
	sn, ok := e.segs[seg]
	return Mapping{e, sn}, ok
}

// Seg returns the site's page table for the segment: the access check
// and the hold (mmu.Seg.Hold, Unhold) are called on it directly.
func (v Mapping) Seg() *mmu.Seg { return v.sn.m }

// RecordOp is Engine.RecordOp for an accessor that holds the page. The
// hold is what places the record in the trace: after the event of the
// grant that let the access in, which was emitted before the page
// became visible, and before the event of the revocation that ends it,
// which waits for the hold.
func (v Mapping) RecordOp(page int32, off int, write bool, b []byte) {
	if !v.e.obs.Tracing() {
		return
	}
	v.e.emitFor(v.sn, opEvent(int32(v.sn.meta.ID), page, off, write, b))
}

// Stats returns a snapshot of the counters: a view of the engine's
// entries in the obs vocabulary, field by field (written out rather than
// reflected — live callers time this call).
func (e *Engine) Stats() Stats {
	n := func(c obs.Counter) int { return int(e.counts[c]) }
	return Stats{
		ReadFaults:        n(obs.CReadFault),
		WriteFaults:       n(obs.CWriteFault),
		RequestsSent:      n(obs.CRequestSent),
		PagesSent:         n(obs.CPageSent),
		PagesReceived:     n(obs.CPageRecv),
		Upgrades:          n(obs.CUpgrade),
		Downgrades:        n(obs.CDowngrade),
		InvalsReceived:    n(obs.CInvalRecv),
		InvalOrders:       n(obs.CInvalOrder),
		BusyReplies:       n(obs.CBusyReply),
		Retries:           n(obs.CRetry),
		Already:           n(obs.CAlready),
		WindowWait:        time.Duration(e.counts[obs.CWindowWait]),
		Dropped:           n(obs.CDropped),
		Retransmits:       n(obs.CRetransmit),
		DupDrops:          n(obs.CDupDrop),
		GaveUp:            n(obs.CGaveUp),
		Denied:            n(obs.CDenied),
		Degraded:          n(obs.CDegraded),
		Stale:             n(obs.CStale),
		Lost:              n(obs.CLost),
		Reissued:          n(obs.CReissued),
		Failovers:         n(obs.CFailover),
		Recoveries:        n(obs.CRecovery),
		StaleEpoch:        n(obs.CStaleEpoch),
		Migrations:        n(obs.CMigration),
		MigrationsRefused: n(obs.CMigrationRefused),
		Appends:           n(obs.CAppend),
		ReplCommits:       n(obs.CReplCommit),
		ReplDegraded:      n(obs.CReplDegraded),
		Elections:         n(obs.CElect),
		DeltaGrows:        n(obs.CDeltaGrow),
		DeltaShrinks:      n(obs.CDeltaShrink),
	}
}

// CreateSegment initializes protocol state for a segment created at
// this site, which becomes its library site (§6.0). All pages start
// resident and writable here with an expired window.
func (e *Engine) CreateSegment(meta *mem.Segment) {
	if meta.Library != e.site {
		panic(fmt.Sprintf("core: CreateSegment at site %d for library %d", e.site, meta.Library))
	}
	sn := e.register(meta)
	lib := newLibSeg(meta)
	sn.lib = lib
	for p := 0; p < meta.Pages; p++ {
		// The install seeds the trace with the initial placement so a
		// checker reading it cold knows who holds what; Cycle 0 marks it
		// ungranted, and the creator's initial hold is not a granted window.
		e.install(sn, int32(p), nil, mmu.ReadWrite, mmu.Copyset{}, 0, 0)
		lib.pages[p].writer = e.site
		lib.pages[p].clock = e.site
	}
	if e.replication != nil {
		e.replSeedLeader(sn)
	}
}

// AttachSegment initializes protocol state for a segment attached at
// this (non-library) site: an empty page table that will fill on
// demand. Attaching twice is a no-op.
func (e *Engine) AttachSegment(meta *mem.Segment) {
	e.register(meta)
}

func (e *Engine) register(meta *mem.Segment) *segNode {
	if sn, ok := e.segs[int32(meta.ID)]; ok {
		return sn
	}
	sn := &segNode{
		meta:   meta,
		m:      mmu.NewSeg(meta.Pages, meta.PageSize),
		pages:  make([]sitePage, meta.Pages),
		curLib: meta.Library,
	}
	e.segs[int32(meta.ID)] = sn
	return sn
}

// DestroySegment drops all local state for a segment (control plane:
// called on every site when the last detach destroys the segment).
// Pending waiters are woken so their access loops can observe the
// destruction.
func (e *Engine) DestroySegment(id int32) {
	sn, ok := e.segs[id]
	if !ok {
		return
	}
	delete(e.segs, id)
	sn.m.Close() // for good: a Mapping outlives the segment
	e.wakeAll(sn)
	e.resetPages(sn, true, true)
}

// resetPages applies sitePage.reset to every page of the segment, in
// page order so that the rollbacks' events land identically across
// replays. A collection that dies with its epoch is rolled back without
// a library to tell: the new one rebuilds from reports. A destroyed
// segment has no page table to roll back into.
func (e *Engine) resetPages(sn *segNode, requests, cycles bool) {
	for p := range sn.pages {
		if pi := sn.pages[p].reset(requests, cycles); pi != nil && e.live(sn) {
			e.reinstate(sn, int32(p), pi)
		}
	}
	if cycles {
		sn.partials = nil // half-received payloads die with their epoch too
	}
}

// Seg returns the site's MMU state for a segment (nil if not attached
// here). The ipc access layer uses it for protection checks and the
// data path.
func (e *Engine) Seg(id int32) *mmu.Seg {
	sn, ok := e.segs[id]
	if !ok {
		return nil
	}
	return sn.m
}

// MappedPages reports how many pages of all attached segments are
// present at this site; the scheduler charges lazy remap for them.
func (e *Engine) MappedPages() int {
	n := 0
	for _, sn := range e.segs {
		n += sn.m.PresentCount()
	}
	return n
}

// Attached reports whether the segment is known at this site.
func (e *Engine) Attached(id int32) bool {
	_, ok := e.segs[id]
	return ok
}

// SitePageState is a read-only snapshot of what the engine tracks for a
// page at this site, for tests and the post-run checks: the zero value
// is an idle record, as every record is once a run has drained.
type SitePageState struct {
	Blocked           int  // faults waiting
	ReadOut, WriteOut bool // request outstanding
	Deadline          bool // request deadline armed
	Collecting        bool // clock site, invalidation collection in flight
	Relaying          bool // interior site, delegated subtree in flight
}

// SitePage returns the engine's record of a page of an attached segment.
func (e *Engine) SitePage(seg, page int32) SitePageState {
	sp := &e.segs[seg].pages[page]
	return SitePageState{Blocked: len(sp.waiters), ReadOut: sp.outR, WriteOut: sp.outW,
		Deadline: sp.rel != nil && sp.rel.cancelReq != nil, Collecting: sp.pend != nil, Relaying: sp.relay != nil}
}

// Fault reports a page fault by a local process: the process (pid)
// needs page of seg with (write) access; wake is called — possibly
// multiple faults later — whenever the page's local state changed so
// the caller can recheck. The caller blocks after Fault and loops:
// check, fault, block (the hardware retries the faulting instruction,
// §6.1).
func (e *Engine) Fault(seg int32, page int32, write bool, pid int32, wake func()) {
	sn, ok := e.segs[seg]
	if !ok {
		// Destroyed or never attached: let the caller recheck and fail.
		e.env.Exec(0, wake)
		return
	}
	if write {
		e.count(obs.CWriteFault)
		e.emit(obs.Event{Type: obs.EvFault, Seg: seg, Page: page, Arg: 1})
	} else {
		e.count(obs.CReadFault)
		e.emit(obs.Event{Type: obs.EvFault, Seg: seg, Page: page})
	}
	sp := &sn.pages[page]
	sp.waiters = append(sp.waiters, waiter{write: write, wake: wake})

	kind := wire.KReadReq
	switch {
	case write && !sp.outW:
		sp.outW, kind = true, wire.KWriteReq
	case !write && !sp.outR && !sp.outW: // a pending write request satisfies a read fault too
		sp.outR = true
	default:
		return // the request already made answers this fault
	}
	e.count(obs.CRequestSent)
	cost := e.costs.Request
	if sn.curLib == e.site {
		cost = e.costs.LocalFault
	}
	m := &wire.Msg{
		Kind: kind,
		Seg:  seg,
		Page: page,
		From: int32(e.site),
		Req:  int32(e.site),
		Pid:  pid,
	}
	lib := sn.curLib
	e.armReqTimer(sn, seg, page)
	e.env.Exec(cost, func() { e.transmit(lib, m) })
}

// wakeWaiters wakes every blocked fault on a page; each rechecks its
// access and refaults if still unsatisfied.
func (e *Engine) wakeWaiters(sn *segNode, page int32) {
	sp := &sn.pages[page]
	ws := sp.waiters
	sp.waiters = nil // taken first: a wake may re-enter Fault
	for i, w := range ws {
		ws[i] = waiter{}
		w.wake()
	}
	if sp.waiters == nil {
		sp.waiters = ws[:0] // the backing array serves the page's next fault
	}
}

// live reports whether sn is still the segment's state at this site: a
// timer or a gated continuation set up for it may fire after the
// segment was destroyed, or destroyed and attached anew.
func (e *Engine) live(sn *segNode) bool { return e.segs[int32(sn.meta.ID)] == sn }

// after is Env.After for a timer that belongs to a segment, and the one
// rule such timers follow: a fire that finds the segment gone is
// dropped. Env.After's contract covers the other half — a cancelled
// timer never fires — so fn tests only protocol state that can change
// without anybody holding the cancel.
func (e *Engine) after(sn *segNode, d time.Duration, fn func()) (cancel func()) {
	return e.env.After(d, func() {
		if e.live(sn) {
			fn()
		}
	})
}

// wakeAll wakes the blocked faults of every page, in page order: the
// requests they re-send then go out in the same order in every run.
func (e *Engine) wakeAll(sn *segNode) {
	for p := int32(0); p < int32(sn.m.Pages()); p++ {
		e.wakeWaiters(sn, p)
	}
}

// Deliver injects a received protocol message (a *wire.Msg; the
// parameter is any so engines with different message sets satisfy a
// common transport interface). Transports call it for every message
// addressed to this site; the engine charges the appropriate service
// cost and then handles it. Loopback messages (From == this site) cost
// nothing: their work is part of the service that produced them, which
// is why colocating requester and library wins (§7.3).
func (e *Engine) Deliver(payload any) {
	m := payload.(*wire.Msg)
	cost := time.Duration(0)
	if int(m.From) != e.site {
		switch m.Kind {
		case wire.KReadReq, wire.KWriteReq, wire.KInstalled, wire.KBusy,
			wire.KReleaseRead, wire.KReleaseWrite:
			cost = e.costs.Server
		case wire.KPageSend:
			cost = e.costs.Install
		default:
			cost = e.costs.Input
		}
	}
	e.env.Exec(cost, func() { e.receive(m) })
}

// receive routes an incoming message through the reliability layer
// when one is configured: acks retire pending retransmissions,
// sequenced messages are deduplicated and resequenced, and everything
// else (loopback, unsequenced) goes straight to the handlers.
func (e *Engine) receive(m *wire.Msg) {
	if e.rel != nil {
		if m.Kind == wire.KAck {
			e.rel.onAck(m)
			return
		}
		if m.Seq != 0 && int(m.From) != e.site {
			e.rel.onSequenced(m)
			return
		}
	}
	e.handle(m)
}

func (e *Engine) handle(m *wire.Msg) {
	e.count(obs.CMsgRecv)
	e.emit(obs.Event{Type: obs.EvMsgRecv, Kind: m.Kind, Seg: m.Seg, Page: m.Page,
		From: m.From, To: int32(e.site), Cycle: m.Cycle})
	sn, ok := e.segs[m.Seg]
	if !ok {
		if e.failover != nil && int(m.From) != e.site {
			// This site never attached the segment, so it can neither
			// report holdings, host the library role nor mirror the log.
			// Refuse explicitly so the sender moves on (to the next
			// candidate, back to granting, or to benching this follower)
			// instead of waiting out a timeout. SegEpoch is set where the
			// receiver checks it, because transmit cannot stamp a segment
			// this site does not know.
			from := int(m.From)
			switch m.Kind {
			case wire.KRecover: // trigger fields echoed
				e.send(from, &wire.Msg{Kind: wire.KRecoverReply, Seg: m.Seg, Page: -2,
					Req: m.Req, Readers: m.Readers, SegEpoch: m.SegEpoch})
				return
			case wire.KMigrate:
				e.send(from, &wire.Msg{Kind: wire.KMigrateAck, Seg: m.Seg, Page: -1})
				return
			case wire.KAppend:
				e.send(from, &wire.Msg{Kind: wire.KAppendAck, Seg: m.Seg, Page: -2, SegEpoch: m.SegEpoch})
				return
			}
		}
		e.count(obs.CDropped)
		return
	}
	fenced := true
	switch m.Kind {
	case wire.KRecover, wire.KRecoverReply, wire.KMigrate, wire.KMigrateAck:
		// Rehoming traffic resolves epoch skew itself, so it skips the
		// generic fence.
		fenced = false
		if e.failover == nil {
			e.count(obs.CDropped)
			return
		}
	case wire.KAppend, wire.KAppendAck, wire.KVote:
		if e.replication == nil {
			e.count(obs.CDropped)
			return
		}
	default:
		// Every other kind names a page, and its handler indexes this
		// site's tables with the number a peer sent (the kinds above
		// carry -1 or -2 there and index nothing with it).
		if m.Page < 0 || int(m.Page) >= len(sn.pages) {
			e.count(obs.CDropped)
			return
		}
	}
	if fenced && e.failover != nil && int(m.From) != e.site {
		// Library-epoch fencing: traffic of a superseded epoch is dead
		// with its library; traffic from a newer one means a takeover
		// this site has not heard of yet.
		if m.SegEpoch < sn.segEpoch.Load() {
			e.staleEpoch(sn, m)
			return
		}
		if m.SegEpoch > sn.segEpoch.Load() {
			e.adoptAhead(sn, m)
		}
	}
	switch m.Kind {
	case wire.KRecover:
		e.handleRecover(sn, m)
	case wire.KRecoverReply:
		e.handleRecoverReply(sn, m)
	case wire.KMigrate:
		e.handleMigrate(sn, m)
	case wire.KMigrateAck:
		e.handleMigrateAck(sn, m)
	case wire.KReadReq, wire.KWriteReq, wire.KReleaseRead, wire.KReleaseWrite,
		wire.KInstalled, wire.KBusy:
		if sn.recov != nil {
			// Mid-takeover: the record is still being obtained. Serve the
			// request once it is installed.
			sn.recov.buffered = append(sn.recov.buffered, m)
			return
		}
		e.handleLibrary(sn, m)
	case wire.KAddReader:
		e.handleAddReader(sn, m)
	case wire.KInval:
		e.handleInval(sn, m)
	case wire.KInvalOrder:
		e.handleInvalOrder(sn, m)
	case wire.KInvalAck:
		e.handleInvalAck(sn, m)
	case wire.KInvalFail:
		e.handleInvalFail(sn, m)
	case wire.KPageSend:
		e.handlePageSend(sn, m)
	case wire.KUpgradeGrant:
		e.handleUpgradeGrant(sn, m)
	case wire.KAlready:
		e.handleAlready(sn, m)
	case wire.KClockHandoff:
		sn.m.Aux(int(m.Page)).ReaderMask = m.Readers
	case wire.KReleaseDone:
		e.handleReleaseDone(sn, m)
	case wire.KDenied:
		e.handleDenied(sn, m)
	case wire.KGrantFail:
		e.handleGrantFail(sn, m)
	case wire.KAppend:
		e.handleAppend(sn, m)
	case wire.KAppendAck:
		e.handleAppendAck(sn, m)
	case wire.KVote:
		e.handleVote(sn, m)
	default:
		panic(fmt.Sprintf("core: site %d: unhandled %v", e.site, m))
	}
}

// send is a small helper stamping the From field.
func (e *Engine) send(to int, m *wire.Msg) {
	m.From = int32(e.site)
	e.transmit(to, m)
}

// transmit hands a message to the reliability layer when one is
// configured; loopback always bypasses it (a site reaches itself).
func (e *Engine) transmit(to int, m *wire.Msg) {
	e.count(obs.CMsgSent)
	e.countN(obs.CWireByte, int64(m.EncodedLen()))
	switch m.Kind {
	case wire.KPageSend:
		e.count(obs.CPageSent)
	case wire.KInval, wire.KInvalOrder:
		e.count(obs.CInvalSent)
	}
	e.emit(obs.Event{Type: obs.EvMsgSend, Kind: m.Kind, Seg: m.Seg, Page: m.Page,
		From: int32(e.site), To: int32(to), Cycle: m.Cycle})
	if e.failover != nil {
		// Stamp the sender's library epoch. Retransmissions keep the
		// stamp of their first send: a message conceived under a dead
		// epoch must not masquerade as current.
		if sn, ok := e.segs[m.Seg]; ok {
			m.SegEpoch = sn.segEpoch.Load()
		}
	}
	if e.rel == nil || to == e.site {
		e.env.Send(to, m)
		return
	}
	e.rel.send(to, m)
}
