package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Counter identifies one monotonic per-site counter in a Registry.
type Counter uint8

// The counter vocabulary. Every coherence event the protocol can
// produce has a counter; units are plain event counts unless the name
// says bytes or ns. docs/OBSERVABILITY.md carries the prose definitions.
const (
	// Protocol faults and message flow.
	CReadFault Counter = iota
	CWriteFault
	CMsgSent
	CMsgRecv
	CPageSent
	CPageRecv
	// Library grant machinery.
	CGrantCycle
	CInvalSent
	CInvalAcked
	CUpgrade
	CDowngrade
	// Δ-window interactions.
	CDeltaDenial
	CRetry
	CAlready
	// Reliability (ARQ) layer.
	CRetransmit
	CDupDrop
	CGaveUp
	CDenied
	CDegraded
	CStale
	CLost
	// Library failover.
	CFailover
	CRecovery
	CStaleEpoch
	// Chaos (fault-injection) verdicts.
	CChaosDrop
	CChaosDup
	CChaosDelay
	CChaosPartition
	CChaosCrash
	// TCP sender batching (the in-process mesh has no batch).
	CFlushBatch
	CFlushFrame
	CFlushByte
	// Simulated fabric delivery.
	CNetDelivered
	CNetByte
	// Application layer (internal/app sharded KV store).
	CAppOp
	CAppHit
	CAppMiss
	CAppConflict
	// Scale path: fan-out tree invalidation and wire accounting.
	CInvalFanout
	CRelay
	CWireByte
	// Placement layer: voluntary library migration.
	CMigration
	CMigrationRefused
	// Replication layer: consensus-replicated library records.
	CAppend
	CReplCommit
	CReplDegraded
	CElect
	// AutoDelta controller: per-page closed-loop Δ adjustments.
	CDeltaGrow
	CDeltaShrink
	// Engine accounting that Site.Stats() reports: requests issued,
	// invalidations handled as clock site and as reader, KBusy replies,
	// time invalidations waited on Δ (a sum of nanoseconds), messages
	// dropped for want of a segment or a role, and delegated orders the
	// watchdog reissued as unicast.
	CRequestSent
	CInvalRecv
	CInvalOrder
	CBusyReply
	CWindowWait
	CDropped
	CReissued

	// NumCounters is the size of the vocabulary: an array indexed by
	// Counter has this many entries.
	NumCounters
)

var counterNames = [...]string{
	CReadFault:        "read_faults",
	CWriteFault:       "write_faults",
	CMsgSent:          "msgs_sent",
	CMsgRecv:          "msgs_recv",
	CPageSent:         "pages_sent",
	CPageRecv:         "pages_recv",
	CGrantCycle:       "grant_cycles",
	CInvalSent:        "invals_sent",
	CInvalAcked:       "invals_acked",
	CUpgrade:          "upgrades",
	CDowngrade:        "downgrades",
	CDeltaDenial:      "delta_denials",
	CRetry:            "retries",
	CAlready:          "already_held",
	CRetransmit:       "retransmits",
	CDupDrop:          "dup_drops",
	CGaveUp:           "gave_up",
	CDenied:           "denied",
	CDegraded:         "degraded",
	CStale:            "stale",
	CLost:             "lost",
	CFailover:         "failovers",
	CRecovery:         "recoveries",
	CStaleEpoch:       "stale_epoch",
	CChaosDrop:        "chaos_drops",
	CChaosDup:         "chaos_dups",
	CChaosDelay:       "chaos_delays",
	CChaosPartition:   "chaos_partitioned",
	CChaosCrash:       "chaos_crashed",
	CFlushBatch:       "flush_batches",
	CFlushFrame:       "flush_frames",
	CFlushByte:        "flush_bytes",
	CNetDelivered:     "net_delivered",
	CNetByte:          "net_bytes",
	CAppOp:            "app_ops",
	CAppHit:           "app_hits",
	CAppMiss:          "app_misses",
	CAppConflict:      "app_conflicts",
	CInvalFanout:      "inval_fanout",
	CRelay:            "relays",
	CWireByte:         "wire_bytes",
	CMigration:        "migrations",
	CMigrationRefused: "refused_migrations",
	CAppend:           "appends",
	CReplCommit:       "repl_commits",
	CReplDegraded:     "repl_degraded",
	CElect:            "elections",
	CDeltaGrow:        "delta_grow",
	CDeltaShrink:      "delta_shrink",
	CRequestSent:      "requests_sent",
	CInvalRecv:        "invals_recv",
	CInvalOrder:       "inval_orders",
	CBusyReply:        "busy_replies",
	CWindowWait:       "window_wait_ns",
	CDropped:          "dropped",
	CReissued:         "reissued",
}

func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return fmt.Sprintf("counter(%d)", uint8(c))
}

// Counters lists every counter in declaration order.
func Counters() []Counter {
	out := make([]Counter, NumCounters)
	for i := range out {
		out[i] = Counter(i)
	}
	return out
}

// Hists lists every histogram id in declaration order.
func Hists() []HistID {
	out := make([]HistID, histCount)
	for i := range out {
		out[i] = HistID(i)
	}
	return out
}

// MaxSites is the registry's site capacity; it matches mmu.MaxSites,
// the copyset (and therefore cluster-size) cap on the public API.
const MaxSites = 65536

// blockSites is how many per-site shards one lazily-allocated block
// holds. Shard storage for 65536 sites would be tens of megabytes per
// registry if allocated eagerly; blocks materialize on first touch, so
// a 16-site cluster pays for one block, not a thousand.
const blockSites = 64

// shard holds one site's counters on its own cache lines so sites
// never contend on increments.
type shard struct {
	v [NumCounters]atomic.Int64
	_ [64]byte
}

// shardBlock is one lazily-allocated run of site shards.
type shardBlock struct {
	shards [blockSites]shard
}

// HistID identifies one histogram in a Registry.
type HistID uint8

// The histogram vocabulary.
const (
	// HDenialRemaining: remaining Δ-window time (ns) at each denial.
	HDenialRemaining HistID = iota
	// HFaultLatency: fault-to-resume latency (ns) at the faulting site.
	HFaultLatency
	// HFlushFrames: frames per TCP sender write-batch flush.
	HFlushFrames
	// HFlushBytes: bytes per TCP sender write-batch flush.
	HFlushBytes
	// HRecoverLatency: library-failover duration (ns), from the
	// successor starting recovery to it resuming grants.
	HRecoverLatency
	// HAppOpLatency: application store operation latency (ns), from op
	// entry to completion including any DSM faults and lock waits.
	HAppOpLatency
	// HMigrateLatency: voluntary migration duration (ns), from the old
	// library freezing the segment to the successor's ack deposing it.
	HMigrateLatency
	// HReplLag: replication lag (ns) at the leader, from appending an
	// intent to its quorum commit — the synchronous overhead replication
	// adds to each gated mutation.
	HReplLag
	// HTunedDelta: the Δ (ns) a page was left at after each AutoDelta
	// controller adjustment — the distribution of where the closed loop
	// settles.
	HTunedDelta

	histCount
)

var histNames = [...]string{
	HDenialRemaining: "denial_remaining_ns",
	HFaultLatency:    "fault_latency_ns",
	HFlushFrames:     "flush_frames_per_batch",
	HFlushBytes:      "flush_bytes_per_batch",
	HRecoverLatency:  "recover_latency_ns",
	HAppOpLatency:    "app_op_latency_ns",
	HMigrateLatency:  "migrate_latency_ns",
	HReplLag:         "repl_lag_ns",
	HTunedDelta:      "tuned_delta_ns",
}

func (h HistID) String() string {
	if int(h) < len(histNames) {
		return histNames[h]
	}
	return fmt.Sprintf("hist(%d)", uint8(h))
}

// histBuckets is the one bucket layout every histogram shares: bucket
// i holds 2^(i-1) < v ≤ 2^i and bucket 0 holds v ≤ 1, so a nanosecond
// sample and a byte count resolve alike to within a factor of two. The
// top bucket's bound, 2^63, reads as math.MaxInt64: no sample overflows.
const histBuckets = 64

// bucketOf returns the bucket a sample lands in.
func bucketOf(v int64) int { return bits.Len64(uint64(max(v, 1) - 1)) }

// bucketBound returns bucket i's inclusive upper bound.
func bucketBound(i int) int64 { return int64(min(uint64(1)<<i, math.MaxInt64)) }

// Hist is a fixed-bucket, lock-free histogram in the one layout
// histBuckets describes. The zero value is ready to use.
type Hist struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one sample.
func (h *Hist) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of samples recorded.
func (h *Hist) Count() int64 { return h.count.Load() }

// Sum returns the total of all samples.
func (h *Hist) Sum() int64 { return h.sum.Load() }

// Max returns the largest sample, or 0 when empty.
func (h *Hist) Max() int64 { return h.max.Load() }

// Mean returns the average sample, or 0 when empty.
func (h *Hist) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns the q-quantile to bucket resolution (see
// HistSnapshot.Quantile).
func (h *Hist) Quantile(q float64) int64 { return h.Snapshot("").Quantile(q) }

// Summary returns the histogram's standard p50/p95/p99/p999 quartet.
func (h *Hist) Summary() HistSummary { return h.Snapshot("").Summary() }

// HistSummary is the standard latency quartet reported by the load
// generator and the benchmark tables. Values carry whatever unit the
// histogram used (nanoseconds throughout this repository).
type HistSummary struct {
	P50  int64 `json:"p50"`
	P95  int64 `json:"p95"`
	P99  int64 `json:"p99"`
	P999 int64 `json:"p999"`
}

// HistSnapshot is a point-in-time copy of one histogram, JSON-friendly.
type HistSnapshot struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Max     int64   `json:"max"`
	Mean    float64 `json:"mean"`
	Bounds  []int64 `json:"bounds,omitempty"`  // upper bounds of non-empty buckets
	Buckets []int64 `json:"buckets,omitempty"` // counts matching Bounds
}

// Snapshot copies the histogram's current state under the given name,
// keeping only non-empty buckets.
func (h *Hist) Snapshot(name string) HistSnapshot {
	s := HistSnapshot{Name: name, Count: h.Count(), Sum: h.Sum(), Max: h.Max(), Mean: h.Mean()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Bounds = append(s.Bounds, bucketBound(i))
			s.Buckets = append(s.Buckets, n)
		}
	}
	return s
}

// Quantile returns an upper bound for the q-quantile, exact to bucket
// resolution: the bound of the bucket holding the int(q·total)-th
// smallest sample, 0 when empty. q is clamped to (0, 1]: q ≤ 0 resolves the
// smallest recorded sample's bucket and q > 1 behaves as q = 1.
func (s HistSnapshot) Quantile(q float64) int64 {
	var total int64
	for _, n := range s.Buckets {
		total += n
	}
	target := max(int64(min(q, 1)*float64(total)), 1)
	var seen int64
	for i, n := range s.Buckets {
		if seen += n; seen >= target {
			return s.Bounds[i]
		}
	}
	return 0
}

// Summary returns the snapshot's standard p50/p95/p99/p999 quartet.
func (s HistSnapshot) Summary() HistSummary {
	return HistSummary{
		P50:  s.Quantile(0.50),
		P95:  s.Quantile(0.95),
		P99:  s.Quantile(0.99),
		P999: s.Quantile(0.999),
	}
}

// WriteTo prints the snapshot — the one way this repository prints a
// distribution: a line with the count, mean, p50, p99 and max, then
// one row per non-empty bucket with its bound, its count and a bar
// scaled to the fullest bucket. Values print as durations when the
// name ends in _ns.
func (s HistSnapshot) WriteTo(w io.Writer) (int64, error) {
	val := func(v int64) string { return strconv.FormatInt(v, 10) }
	mean := strconv.FormatFloat(s.Mean, 'f', 1, 64)
	if strings.HasSuffix(s.Name, "_ns") {
		val = func(v int64) string { return time.Duration(v).String() }
		mean = val(int64(s.Mean))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: n=%d mean=%s p50≤%s p99≤%s max=%s\n",
		s.Name, s.Count, mean, val(s.Quantile(0.5)), val(s.Quantile(0.99)), val(s.Max))
	top := slices.Max(append([]int64{1}, s.Buckets...))
	for i, n := range s.Buckets {
		fmt.Fprintf(&b, "  ≤%-14s %8d  %s\n", val(s.Bounds[i]), n, strings.Repeat("#", int(max(1, 40*n/top))))
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Registry is the sharded metrics store: one cache-line-isolated shard
// of monotonic counters per site plus a small set of global histograms.
// All methods are safe for concurrent use and increments are a single
// atomic add — cheap enough to leave on in live mode. Shard blocks are
// allocated on a site's first increment (a one-time CAS); warm-path
// increments stay allocation-free.
type Registry struct {
	blocks [MaxSites / blockSites]atomic.Pointer[shardBlock]
	hists  [histCount]Hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// shard returns site's shard, materializing its block on first touch.
func (r *Registry) shard(site int) *shard {
	if site < 0 || site >= MaxSites {
		site = 0
	}
	bp := &r.blocks[site/blockSites]
	b := bp.Load()
	if b == nil {
		nb := &shardBlock{}
		if !bp.CompareAndSwap(nil, nb) {
			b = bp.Load()
		} else {
			b = nb
		}
	}
	return &b.shards[site%blockSites]
}

// Inc adds one to counter c for site. Out-of-range sites fold into
// shard 0 rather than panicking — metrics must never take a run down.
func (r *Registry) Inc(site int, c Counter) { r.Add(site, c, 1) }

// Add adds n to counter c for site.
func (r *Registry) Add(site int, c Counter, n int64) {
	r.shard(site).v[c].Add(n)
}

// Get returns counter c for one site.
func (r *Registry) Get(site int, c Counter) int64 {
	if site < 0 || site >= MaxSites {
		site = 0
	}
	b := r.blocks[site/blockSites].Load()
	if b == nil {
		return 0
	}
	return b.shards[site%blockSites].v[c].Load()
}

// Total returns counter c summed across all sites.
func (r *Registry) Total(c Counter) int64 {
	var t int64
	for i := range r.blocks {
		b := r.blocks[i].Load()
		if b == nil {
			continue
		}
		for s := range b.shards {
			t += b.shards[s].v[c].Load()
		}
	}
	return t
}

// Hist returns the identified histogram for direct observation.
func (r *Registry) Hist(id HistID) *Hist { return &r.hists[id] }

// Observe records one sample into the identified histogram.
func (r *Registry) Observe(id HistID, v int64) { r.hists[id].Observe(v) }

// Snapshot is a point-in-time, JSON-friendly copy of a Registry.
// Totals holds every counter (zeros included, so consumers see the
// full vocabulary); PerSite keeps only non-zero entries for sites that
// recorded anything.
type Snapshot struct {
	Totals  map[string]int64            `json:"totals"`
	PerSite map[string]map[string]int64 `json:"per_site,omitempty"`
	Hists   []HistSnapshot              `json:"hists,omitempty"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Totals: make(map[string]int64, int(NumCounters))}
	for c := Counter(0); c < NumCounters; c++ {
		s.Totals[c.String()] = r.Total(c)
	}
	for bi := range r.blocks {
		b := r.blocks[bi].Load()
		if b == nil {
			continue
		}
		for si := range b.shards {
			site := bi*blockSites + si
			var m map[string]int64
			for c := Counter(0); c < NumCounters; c++ {
				if v := b.shards[si].v[c].Load(); v != 0 {
					if m == nil {
						m = make(map[string]int64)
					}
					m[c.String()] = v
				}
			}
			if m != nil {
				if s.PerSite == nil {
					s.PerSite = make(map[string]map[string]int64)
				}
				s.PerSite[fmt.Sprintf("site%d", site)] = m
			}
		}
	}
	for id := HistID(0); id < histCount; id++ {
		if r.hists[id].Count() > 0 {
			s.Hists = append(s.Hists, r.hists[id].Snapshot(id.String()))
		}
	}
	return s
}

// WriteTo prints a human-readable dump of every non-zero counter
// (totals plus per-site breakdown) and every non-empty histogram, in
// deterministic order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var written int64
	pf := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		written += int64(n)
		return err
	}
	s := r.Snapshot()
	names := make([]string, 0, len(s.Totals))
	for name, v := range s.Totals {
		if v != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		if err := pf("metrics: no events recorded\n"); err != nil {
			return written, err
		}
		return written, nil
	}
	sites := make([]string, 0, len(s.PerSite))
	for site := range s.PerSite {
		sites = append(sites, site)
	}
	sort.Slice(sites, func(i, j int) bool {
		return len(sites[i]) < len(sites[j]) || (len(sites[i]) == len(sites[j]) && sites[i] < sites[j])
	})
	for _, name := range names {
		if err := pf("%-24s %12d", name, s.Totals[name]); err != nil {
			return written, err
		}
		parts := ""
		for _, site := range sites {
			if v, ok := s.PerSite[site][name]; ok {
				parts += fmt.Sprintf(" %s=%d", site, v)
			}
		}
		if err := pf("  %s\n", parts); err != nil {
			return written, err
		}
	}
	for _, hs := range s.Hists {
		n, err := hs.WriteTo(w)
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}
