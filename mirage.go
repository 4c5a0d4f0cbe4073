// Package mirage is a coherent distributed shared memory library: a
// reimplementation of the Mirage DSM design (Fleisch & Popek, 1989) as
// an embeddable Go runtime.
//
// Mirage gives a set of sites a System V style shared-memory interface
// with sequential coherence at page granularity: a write to an address
// is visible to every subsequent read of that address regardless of
// site. One site per segment — the creating site — acts as the
// *library site*, queueing and sequentially processing page requests;
// the site holding a page's most recent copy is its *clock site* and
// enforces the page's *time window Δ*, during which the holder cannot
// be interrupted. Δ is the design's tuning knob: it trades per-page
// fairness against thrashing control (large Δ ameliorates ping-ponging
// at the cost of latency for competing sites).
//
// The package runs the protocol engine over real transports
// (in-process by default, TCP optionally) and real time. The same
// engine also powers the calibrated VAX/Ethernet simulator used by the
// benchmarks that reproduce the paper's evaluation; see DESIGN.md and
// EXPERIMENTS.md at the repository root.
//
// Basic use:
//
//	c, _ := mirage.NewCluster(3, mirage.Options{Delta: 20 * time.Millisecond})
//	defer c.Close()
//
//	s0 := c.Site(0)
//	id, _ := s0.Shmget(0x1234, 8192, mirage.Create, 0o600)
//	seg, _ := s0.Attach(id, false)
//	seg.SetUint32(0, 42)
//
//	s1 := c.Site(1)
//	remote, _ := s1.Attach(id, false)
//	v, _ := remote.Uint32(0) // 42, fetched coherently
package mirage

import (
	"errors"
	"time"

	"mirage/internal/chaos"
	"mirage/internal/core"
	"mirage/internal/mem"
	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/vaxmodel"
)

// MaxSites is the largest cluster NewCluster accepts: the copyset
// representation tracks at most this many sites per page.
const MaxSites = mmu.MaxSites

// Key names a segment cluster-wide (System V key_t).
type Key = mem.Key

// SegID identifies a created segment (System V shmid).
type SegID = mem.SegID

// IPCPrivate always creates a fresh private segment.
const IPCPrivate = mem.IPCPrivate

// Shmget flags.
const (
	// Create makes the segment if the key is unbound.
	Create = mem.Create
	// Exclusive with Create fails if the key exists.
	Exclusive = mem.Exclusive
)

// InvalPolicy selects the clock site's handling of an invalidation
// arriving inside an unexpired window.
type InvalPolicy = core.InvalPolicy

// Invalidation policies (see the paper's §7.1: the prototype retried;
// the other two are its proposed optimizations).
const (
	PolicyRetry      = core.PolicyRetry
	PolicyHonorClose = core.PolicyHonorClose
	PolicyQueue      = core.PolicyQueue
)

// Reliability configures the optional ARQ layer: per-peer sequencing,
// ack-driven retransmission with exponential backoff, and degraded
// grants (accessors get an error instead of hanging when a peer stays
// unreachable past the retry budget). See core.Reliability for the
// field defaults.
type Reliability = core.Reliability

// Failover configures library-site failover: when a segment's library
// site stays unreachable past the reliability layer's retry budget, a
// deterministic successor (the next live site by number) reconstructs
// the library's page records by querying the surviving holders, bumps
// the segment's library epoch — carried on every subsequent protocol
// message and trace event, fencing the deposed library's stragglers —
// and resumes granting. Requires Options.Reliability. The zero value is
// usable: NewCluster fills in the cluster size, and RecoverTimeout (the
// bound on waiting for holder reports) defaults per core.Failover.
type Failover = core.Failover

// Placement configures voluntary library migration: each library site
// tracks per-segment request demand in sliding windows and, when a
// remote site dominates a window (and the runner-up is far enough
// behind that the traffic is not ping-pong write sharing), hands the
// library role to it using the same epoch-fenced handoff machinery as
// failover — but with the page records transferred exactly instead of
// reconstructed, since the outgoing library is alive and quiescent.
// Requires Options.Failover (and therefore Reliability). The zero
// value takes the defaults documented on core.Placement; see
// docs/PLACEMENT.md for the protocol and policy guidance.
type Placement = core.Placement

// Replication configures consensus-replicated library records: each
// segment's library mirrors every page-record mutation to the Replicas
// sites after it in ID order before the mutation is acknowledged, so a
// library-site crash is survived by electing a follower that installs
// the record from its replicated log — no cluster-wide holder
// interrogation, no reconstruction pause. Requires Options.Failover
// (and therefore Reliability); when the follower quorum is lost the
// takeover falls back to failover's holder rebuild. NewCluster fills in
// the cluster size. See docs/REPLICATION.md.
type Replication = core.Replication

// AutoDelta configures the built-in per-page closed-loop Δ controller:
// the library watches each page's denial signals (count and
// remaining-window EWMA of KBusy replies) and its write-sharing
// pattern, and walks Δ with an AIMD policy — additive growth while
// denials are cheap and the writer is stable, multiplicative shrink
// when denial cost or write-sharing spikes — clamped to [Min, Max] and
// rate-limited per page. The zero value takes the defaults documented
// on core.AutoDelta. Tuned values survive role movement: they ship in
// migration records, replicate through the record log, and are
// restored from holder-reported windows on failover. See DESIGN.md §16
// and docs/TUNING.md.
type AutoDelta = core.AutoDelta

// FaultPlan is a deterministic, seeded fault-injection plan applied to
// the cluster's transport fabric (drops, duplicates, delays, reorders,
// partitions, crash windows). Build one with ParseFaultPlan or
// literally; see internal/chaos for the grammar.
type FaultPlan = chaos.Plan

// ChaosStats are the injector's cumulative counters.
type ChaosStats = chaos.Stats

// ParseFaultPlan parses the chaos plan grammar, e.g.
// "seed=42; drop p=0.05 kind=page-send; delay p=0.3 max=20ms;
// partition sites=1,2 from=2s until=3s".
func ParseFaultPlan(s string) (*FaultPlan, error) { return chaos.Parse(s) }

// Obs is a cluster-wide observability sink: a sharded metrics registry
// counting every coherence event (faults, invalidations, Δ-window
// denials, retransmits, chaos verdicts, flush batches) plus an optional
// structured protocol-event tracer. Attach one via Options.Obs; nil —
// the default — keeps every hot path at a single pointer test and zero
// allocations. See docs/OBSERVABILITY.md for the event vocabulary, the
// JSONL trace schema, and metric names.
type Obs = obs.Obs

// TraceEvent is one structured protocol event: a page fault, message
// send/receive, grant-cycle boundary, Δ denial, page state transition,
// retransmission, or chaos verdict. Live clusters timestamp events with
// wall-clock time since cluster start; the simulator uses virtual time,
// which makes its traces bit-reproducible.
type TraceEvent = obs.Event

// NewObs builds an observability sink with metrics and an in-memory
// bounded trace buffer (obs.DefaultBufferCap events; older events are
// kept, new ones dropped and counted once full).
func NewObs() *Obs { return obs.New() }

// Errors surfaced by segment handles.
var (
	// ErrDetached reports use of a detached or destroyed segment.
	ErrDetached = mem.ErrDetached
	// ErrBounds reports an access outside the segment.
	ErrBounds = mem.ErrBounds
	// ErrReadOnly reports a write through a read-only attach.
	ErrReadOnly = mem.ErrReadOnly
	// ErrClosed reports use of a closed cluster.
	ErrClosed = errors.New("mirage: cluster closed")
	// ErrUnreachable reports a degraded grant: a peer needed to satisfy
	// the access stayed unreachable past the reliability layer's retry
	// budget. The access had no effect; retry once the fault heals.
	ErrUnreachable = core.ErrUnreachable
	// ErrNegativeDelta reports a rejected attempt to set a negative Δ
	// window (Site.SetSegmentDelta).
	ErrNegativeDelta = core.ErrNegativeDelta
	// ErrNotLibrary reports Site.SetSegmentDelta called at a site that
	// is not the segment's library now, or for a segment it does not know.
	ErrNotLibrary = core.ErrNotLibrary
	// ErrTooManySites reports a cluster sized beyond MaxSites, the
	// copyset capacity. Rejected explicitly — silently truncating the
	// reader record would corrupt coherence.
	ErrTooManySites = mmu.ErrTooManySites
)

// Re-exported registry errors, so callers can errors.Is against the
// System V failure modes.
var (
	ErrExists     = mem.ErrExists
	ErrNotFound   = mem.ErrNotFound
	ErrInvalid    = mem.ErrInvalid
	ErrPermission = mem.ErrPermission
	ErrRemoved    = mem.ErrRemoved
)

// Options configure a cluster. The zero value is usable.
type Options struct {
	// PageSize is the coherence unit in bytes; default 512, the
	// paper's page size. Must be positive if set.
	PageSize int
	// Delta is the default time window granted with each page. Zero
	// means pages may be invalidated as soon as a competing request is
	// processed; negative is rejected by NewCluster. Per-page windows
	// can be changed later with Site.SetSegmentDelta, or tuned online
	// by AutoDelta.
	Delta time.Duration
	// MaxSegmentBytes bounds segment size; default 16 MiB.
	MaxSegmentBytes int
	// Policy is the invalidation policy; default PolicyRetry (the
	// paper prototype's two-attempt behaviour). PolicyQueue is usually
	// the better choice for new deployments.
	Policy InvalPolicy
	// TCP, when true, carries protocol traffic over TCP loopback
	// sockets instead of in-process channels. The cluster still shares
	// one segment name space (the control plane is in-process); the
	// data plane — page transfers, invalidations, window traffic — is
	// on the wire.
	TCP bool
	// TCPAddr is the listen address pattern for TCP mode; default
	// "127.0.0.1:0" (ephemeral ports).
	TCPAddr string
	// Reliability, when non-nil, enables the ARQ layer. nil keeps the
	// paper-faithful engine, which assumes a lossless ordered fabric.
	Reliability *Reliability
	// Failover, when non-nil, enables library-site failover on top of
	// the ARQ layer: segments survive a library-site crash by electing
	// a successor that rebuilds the page records from surviving
	// holders. Requires Reliability. &Failover{} takes the defaults.
	Failover *Failover
	// Placement, when non-nil, enables voluntary library migration on
	// top of failover: a segment's library follows its demand, rehoming
	// itself to a site that dominates the request stream. Requires
	// Failover. &Placement{} takes the defaults.
	Placement *Placement
	// Replication, when non-nil with Replicas > 0, replicates each
	// segment's library record to follower sites ahead of every
	// acknowledged mutation, making library takeover pauseless (the
	// elected follower installs from its log instead of rebuilding from
	// holders). Requires Failover. &Replication{Replicas: 2} is typical.
	Replication *Replication
	// AutoDelta, when non-nil, lets each segment's library tune every
	// page's Δ online instead of granting the fixed Options.Delta: the
	// closed loop starts from Delta (clamped into the controller's
	// band) and walks it per observed sharing pattern. &AutoDelta{}
	// takes the defaults. When verifying traced AutoDelta runs, pass
	// AutoDelta.Min as the checker's Delta — the sound lower bound on
	// every granted window.
	AutoDelta *AutoDelta
	// Chaos, when non-nil, injects faults into the transport fabric per
	// the plan. Requires Reliability: the lossless-fabric engine has no
	// recovery paths for a lossy mesh.
	Chaos *FaultPlan
	// InvalFanout, when ≥ 2, invalidates large reader sets through a
	// k-ary fan-out tree (interior holder sites relay orders and return
	// aggregated acks) instead of one unicast order per reader. The
	// default (0) keeps the paper's flat unicast. See DESIGN.md §13.
	InvalFanout int
	// Obs, when non-nil, attaches an observability sink: protocol
	// counters and latency histograms for every site, and — when the
	// sink carries a tracer, as NewObs's does — a structured event
	// timeline of page faults, grant cycles, invalidations, and Δ-window
	// denials. nil (the default) disables observability entirely; the
	// protocol hot paths then cost one pointer test and zero
	// allocations.
	Obs *Obs
	// Check, when true, records a per-access operation event — offset,
	// length, and a content digest — into the trace for every segment
	// read and write, giving the coherence checker (VerifyTrace) the
	// read-your-writes oracle in addition to the protocol events.
	// Requires Obs with a tracer (NewObs provides one). Off by default:
	// op events add trace volume proportional to data accesses.
	Check bool
	// DebugAddr, when non-empty, serves debug HTTP on the address
	// (e.g. "127.0.0.1:0" for an ephemeral port): /debug/obs (metrics
	// snapshot as JSON), /debug/obs/trace (the trace buffer as JSONL),
	// plus the standard expvar and net/http/pprof endpoints. Requires
	// Obs. The bound address is available from Cluster.DebugAddr.
	DebugAddr string
}

func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = vaxmodel.PageSize
	}
	if o.MaxSegmentBytes == 0 {
		o.MaxSegmentBytes = 16 << 20
	}
	if o.TCPAddr == "" {
		o.TCPAddr = "127.0.0.1:0"
	}
	return o
}
