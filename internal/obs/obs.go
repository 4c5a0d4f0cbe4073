// Package obs is the unified observability layer for the Mirage DSM:
// a cheap sharded metrics registry (monotonic counters plus fixed-bucket
// histograms) and a structured protocol event tracer sharing one event
// vocabulary between the deterministic simulator (virtual clock) and
// live mode (wall clock).
//
// The paper's entire evaluation (§7–§9) is built on seeing the
// protocol: component timings, fault counts per window Δ, the library
// reference string. This package makes that first-class. Every
// coherence event — read/write faults, invalidations sent and acked,
// reader→writer upgrades, writer→reader downgrades, Δ-window denials
// with remaining time, retransmissions, chaos verdicts, transport batch
// flushes — is countable through the Registry and traceable through a
// Tracer.
//
// Design constraints, in priority order:
//
//  1. Off is free. A nil *Obs (the default everywhere) must add zero
//     allocations and only a pointer test to the hot paths. The
//     AllocsPerRun gates in obs_test.go enforce this.
//  2. Deterministic in simulation. Event order and timestamps come from
//     the virtual clock, so a traced sim run serializes to identical
//     bytes at any host parallelism.
//  3. Zero dependencies. Standard library only, like the rest of the
//     repository.
//
// The JSONL trace schema and the metric vocabulary are documented in
// docs/OBSERVABILITY.md at the repository root; SchemaVersion below is
// the version stamped into every trace header.
package obs

import (
	"sync"
	"time"

	"mirage/internal/wire"
)

// SchemaVersion is the version of the JSONL trace schema this package
// writes. Readers reject traces with a newer version. Version 2 writes
// every non-zero field of every event; a v1 trace, which dropped from/to
// on some event types, still reads.
const SchemaVersion = 2

// EvType discriminates protocol trace events.
type EvType uint8

// The event vocabulary. One set of types serves both execution modes;
// docs/OBSERVABILITY.md describes each event's fields in detail.
const (
	// EvInvalid is the zero EvType; it never appears in a trace.
	EvInvalid EvType = iota
	// EvFault is a local access fault (Arg: 0 read, 1 write).
	EvFault
	// EvMsgSend is a protocol message handed to the fabric (From/To set,
	// Kind is the wire message kind).
	EvMsgSend
	// EvMsgRecv is a protocol message handled by an engine.
	EvMsgRecv
	// EvGrantStart is a library grant cycle opening (Arg: 0 read batch,
	// 1 write grant; To is the new writer for write grants).
	EvGrantStart
	// EvGrantEnd is a library grant cycle committing.
	EvGrantEnd
	// EvDeltaDeny is a clock site refusing an invalidation inside an
	// unexpired Δ window (Arg: remaining window in nanoseconds).
	EvDeltaDeny
	// EvRetry is the library re-sending an invalidation after a KBusy
	// (Arg: the wait in nanoseconds).
	EvRetry
	// EvPageState is a per-page protection transition at a site (Arg:
	// 0 invalid, 1 read, 2 write).
	EvPageState
	// EvUpgrade is an in-place reader→writer upgrade landing.
	EvUpgrade
	// EvDowngrade is a writer→reader downgrade at the old writer.
	EvDowngrade
	// EvRetransmit is the reliability layer re-sending a sequenced
	// message after an ack timeout (To: peer, Arg: sequence number).
	EvRetransmit
	// EvChaos is a fault-injection verdict (Arg: a ChaosVerdict).
	EvChaos
	// EvRead is a completed application-level read of a page range.
	// From is the byte offset within the page, To the length, Arg the
	// FNV-1a 64-bit digest of the bytes read. Emitted by the access
	// layers when op recording is on; the coherence history checker
	// (internal/check) replays these against the latest-write oracle.
	EvRead
	// EvWrite is a completed application-level write of a page range;
	// fields as EvRead, with Arg digesting the bytes as written.
	EvWrite
	// EvFailover is a site detecting a dead library and triggering
	// failover (From: the unreachable library site, To: the successor
	// site the trigger was sent to).
	EvFailover
	// EvRecover is a successor completing library takeover for a
	// segment: its Epoch field is the new library epoch, Arg the site id
	// of the failed library it replaces. Emitted once per recovery at
	// the new library site.
	EvRecover
	// EvInvalFanout is a site partitioning an invalidation target set
	// into delegated subtrees (Arg: the number of direct children the
	// orders went to).
	EvInvalFanout
	// EvRelay is an interior site accepting a delegated invalidation
	// subtree: it discards its own copy, relays orders onward, and owes
	// its parent (From) one aggregated ack (Arg: subtree size excluding
	// this site).
	EvRelay
	// EvMigrate is a successor completing a voluntary library migration
	// for a segment: its Epoch field is the new library epoch, Arg the
	// site id of the old library that handed the role over. Emitted once
	// per migration at the new library site. Unlike EvRecover the old
	// library is alive and its copies stay valid.
	EvMigrate
	// EvReplicate is replication log activity (docs/REPLICATION.md).
	// From == Site: the leader committed the entry at quorum; From !=
	// Site: a follower applied an entry replicated from the leader in
	// From. Arg is the log index, Cycle the entry's 32-bit digest.
	EvReplicate
	// EvElect is an election winner installing the library from its
	// replicated log tail instead of reconstructing holdings: its Epoch
	// field is the new library epoch, From the dead leader, Cycle the
	// merged log's epoch (term), Arg the merged tail index.
	EvElect
	// EvRetune is the AutoDelta controller adjusting a page's Δ at the
	// library: Arg is the new Δ in nanoseconds, Cycle the grant cycle
	// the adjustment landed on. Emitted only when Δ actually changed.
	EvRetune

	evTypeCount
)

// Chaos verdict codes carried in EvChaos.Arg. Code 4 is retired: traces
// written before a crash was a one-site partition carry it for a crash,
// so it is never reused.
const (
	ChaosDrop = iota
	ChaosDup
	ChaosDelay
	ChaosPartition
)

var chaosNames = [...]string{ChaosDrop: "drop", ChaosDup: "dup", ChaosDelay: "delay", ChaosPartition: "partition"}

// chaosName names an EvChaos verdict in the summary and the Chrome
// export; a code it does not know reads as a drop.
func chaosName(verdict int64) string {
	if verdict < 0 || verdict >= int64(len(chaosNames)) {
		return chaosNames[ChaosDrop]
	}
	return chaosNames[verdict]
}

var evNames = [...]string{
	EvInvalid:     "invalid",
	EvFault:       "fault",
	EvMsgSend:     "msg-send",
	EvMsgRecv:     "msg-recv",
	EvGrantStart:  "grant-start",
	EvGrantEnd:    "grant-end",
	EvDeltaDeny:   "delta-deny",
	EvRetry:       "retry",
	EvPageState:   "page-state",
	EvUpgrade:     "upgrade",
	EvDowngrade:   "downgrade",
	EvRetransmit:  "retransmit",
	EvChaos:       "chaos",
	EvRead:        "read",
	EvWrite:       "write",
	EvFailover:    "failover",
	EvRecover:     "recover",
	EvInvalFanout: "inval-fanout",
	EvRelay:       "relay",
	EvMigrate:     "migrate",
	EvReplicate:   "replicate",
	EvElect:       "elect",
	EvRetune:      "retune",
}

func (t EvType) String() string {
	if int(t) < len(evNames) {
		return evNames[t]
	}
	return "invalid"
}

// EvTypes lists every real event type (EvInvalid excluded) in
// declaration order.
func EvTypes() []EvType {
	out := make([]EvType, 0, evTypeCount-1)
	for t := EvInvalid + 1; t < evTypeCount; t++ {
		out = append(out, t)
	}
	return out
}

// ParseEvType resolves an event type's String() name back to its value.
func ParseEvType(s string) (EvType, bool) {
	for t := EvInvalid + 1; t < evTypeCount; t++ {
		if evNames[t] == s {
			return t, true
		}
	}
	return EvInvalid, false
}

// Event is one protocol trace event. It is a fixed-size value with no
// pointers so a buffer of them is one allocation and emitting one is
// a struct copy.
//
// T is the time since run start: virtual time in the simulator, wall
// time since cluster start in live mode — the trace header's Clock
// field says which. From and To are only meaningful for message-flow
// events (EvMsgSend, EvMsgRecv, EvRetransmit, EvChaos); Arg is the
// event-specific scalar documented on each EvType.
type Event struct {
	T     time.Duration
	Site  int32
	Type  EvType
	Kind  wire.Kind // message kind for message events; KInvalid otherwise
	Seg   int32
	Page  int32
	From  int32
	To    int32
	Cycle uint32
	Epoch uint32 // segment's library epoch at emission; 0 before any failover
	Arg   int64
}

// Tracer receives protocol events. Implementations must be safe for
// concurrent use: live-mode sites emit from independent goroutines.
// The simulator is single-threaded per run, so any Tracer sees a
// deterministic event order there.
type Tracer interface {
	Emit(Event)
}

// Obs bundles the two observability sinks handed through the stack.
// Either field may be nil: a nil Metrics drops counts, a nil Tracer
// drops events. The nil *Obs drops everything and is the default.
type Obs struct {
	Metrics *Registry
	Tracer  Tracer
}

// New returns an Obs with a fresh Registry and an unbounded-ish Buffer
// tracer — the standard fully-on configuration.
func New() *Obs {
	return &Obs{Metrics: NewRegistry(), Tracer: NewBuffer()}
}

// Count increments a counter for a site. Nil-safe.
func (o *Obs) Count(site int, c Counter) { o.CountN(site, c, 1) }

// CountN adds n to a counter for a site. Nil-safe.
func (o *Obs) CountN(site int, c Counter, n int64) {
	if o == nil || o.Metrics == nil {
		return
	}
	o.Metrics.Add(site, c, n)
}

// Observe records one histogram sample. Nil-safe.
func (o *Obs) Observe(h HistID, v int64) {
	if o == nil || o.Metrics == nil {
		return
	}
	o.Metrics.Hist(h).Observe(v)
}

// Emit hands one event to the tracer. Nil-safe.
func (o *Obs) Emit(ev Event) {
	if o == nil || o.Tracer == nil {
		return
	}
	o.Tracer.Emit(ev)
}

// Tracing reports whether events would be recorded (used to skip
// event construction entirely on hot paths).
func (o *Obs) Tracing() bool { return o != nil && o.Tracer != nil }

// Buffer returns the buffer the events are recorded in: the tracer when
// it is a *Buffer, the one it records into when it wraps one (as the
// simulator's event-order check does), else nil.
func (o *Obs) Buffer() *Buffer {
	if o == nil {
		return nil
	}
	switch t := o.Tracer.(type) {
	case *Buffer:
		return t
	case interface{ Buffer() *Buffer }:
		return t.Buffer()
	}
	return nil
}

// DefaultBufferCap bounds an event Buffer: past it, events are counted
// as dropped rather than stored, so a forgotten tracer on a long run
// cannot consume unbounded memory.
const DefaultBufferCap = 1 << 20

// Buffer is an in-memory Tracer. It preserves emission order; in the
// simulator that order (and every timestamp) is deterministic, which is
// what makes traced runs byte-identical across host parallelism.
type Buffer struct {
	mu      sync.Mutex
	events  []Event
	dropped int64
	max     int
}

// NewBuffer returns an empty buffer with the default capacity bound.
func NewBuffer() *Buffer { return &Buffer{max: DefaultBufferCap} }

// NewBufferCap returns an empty buffer bounded to max events.
func NewBufferCap(max int) *Buffer { return &Buffer{max: max} }

// Emit appends one event, or counts it dropped past the bound.
func (b *Buffer) Emit(ev Event) {
	b.mu.Lock()
	if len(b.events) >= b.max {
		b.dropped++
	} else {
		b.events = append(b.events, ev)
	}
	b.mu.Unlock()
}

// Len returns the number of buffered events.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// Dropped returns the number of events lost to the capacity bound.
func (b *Buffer) Dropped() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// Events returns a snapshot copy of the buffered events.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.events...)
}

// Reset discards all buffered events.
func (b *Buffer) Reset() {
	b.mu.Lock()
	b.events = b.events[:0]
	b.dropped = 0
	b.mu.Unlock()
}
