// Package load is Mirage's deterministic open-loop workload generator:
// the traffic side of the service-level evaluation (EXPERIMENTS.md
// E19).
//
// Open loop means arrivals come from a seeded Poisson process on a
// fixed schedule, regardless of how fast the system absorbs them — the
// generator never waits for a response before offering the next
// request, so saturation shows up as queueing and shed load instead of
// silently throttled throughput (the coordinated-omission trap a
// closed-loop driver falls into). Admission queues are bounded: an
// arrival that finds its frontend's queue full is shed and counted,
// never buffered without limit.
//
// One lane loop serves every stream on either clock: Report.Serve
// releases a frontend's arrivals, keeps its bounded backlog and serves
// it in arrival order. RunLive runs it on the wall clock, one goroutine
// per frontend; the simulator runs it on a proc's virtual clock.
//
// Everything is derived from Spec.Seed: per-frontend arrival times,
// key choices (uniform, Zipf, or a shifting hotspot), operation mix,
// and value bytes. Two runs with one Spec offer byte-identical op
// streams — on the virtual-clock simulator the whole rung is
// bit-reproducible; live, the schedule is identical and only service
// times vary.
//
// The liveness invariant the reports check (Rung.LivenessOK): every
// admitted request completes, and queue depth never exceeds its bound.
// Below the saturation knee a healthy system also sheds nothing.
package load

import (
	"fmt"
	"math/rand"
	"time"
)

// Skew selects the key-popularity distribution.
type Skew int

// The key skew vocabulary.
const (
	// SkewUniform draws keys uniformly over the keyspace.
	SkewUniform Skew = iota
	// SkewZipf draws keys Zipf-distributed (parameter Spec.ZipfS) —
	// the classic few-hot-keys shape.
	SkewZipf
	// SkewHotspot concentrates Spec.HotFrac of the traffic on a window
	// of Spec.HotKeys keys that jumps elsewhere every Spec.HotShift —
	// the migration-bait workload ROADMAP item 1 needs.
	SkewHotspot
)

var skewNames = map[Skew]string{SkewUniform: "uniform", SkewZipf: "zipf", SkewHotspot: "hot"}

func (s Skew) String() string {
	if n, ok := skewNames[s]; ok {
		return n
	}
	return fmt.Sprintf("skew(%d)", int(s))
}

// ParseSkew resolves a skew name (uniform | zipf | hot).
func ParseSkew(s string) (Skew, error) {
	for k, n := range skewNames {
		if n == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("load: unknown skew %q (uniform | zipf | hot)", s)
}

// OpKind is one request type.
type OpKind uint8

// The operation vocabulary, a session-store mix.
const (
	// OpGet reads a key (a miss is a valid outcome, not an error).
	OpGet OpKind = iota
	// OpPut inserts or updates a key.
	OpPut
	// OpDelete removes a key (a miss is a valid outcome).
	OpDelete
	// OpCAS reads the current value and conditionally replaces it —
	// the optimistic session-update shape.
	OpCAS
)

var opNames = [...]string{OpGet: "get", OpPut: "put", OpDelete: "delete", OpCAS: "cas"}

func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one generated request: a scheduled arrival time (relative to
// rung start) plus the operation itself.
type Op struct {
	T    time.Duration
	Key  uint64
	Kind OpKind
}

// Spec parameterizes one rung of offered load. The zero value is not
// runnable; call WithDefaults (Rate and Duration always need explicit
// values).
type Spec struct {
	// Seed drives every random draw; same seed, same op streams.
	Seed int64
	// Rate is the aggregate offered arrival rate in requests/second,
	// split evenly over the frontends.
	Rate float64
	// Duration is the offered-load window; arrivals stop after it.
	Duration time.Duration
	// Frontends is the number of independent open-loop streams, each
	// served by its own lane (default 1).
	Frontends int
	// QueueCap bounds each frontend's admission queue (default 64);
	// arrivals beyond it are shed.
	QueueCap int
	// Keys is the keyspace size (default 4096).
	Keys int
	// ReadFrac is the fraction of ops that are Gets (default 0.75).
	ReadFrac float64
	// DeleteFrac is the fraction of ops that are Deletes (default
	// 0.02).
	DeleteFrac float64
	// CASFrac is the fraction of ops that are CAS updates (default
	// 0.05). The remainder after reads/deletes/CAS are Puts.
	CASFrac float64
	// ValBytes is the stored value size (default 32).
	ValBytes int
	// Skew selects the key distribution (default SkewUniform).
	Skew Skew
	// ZipfS is the Zipf exponent for SkewZipf (default 1.2; must be
	// > 1).
	ZipfS float64
	// HotFrac is the probability a SkewHotspot op lands in the hot
	// window (default 0.9).
	HotFrac float64
	// HotKeys is the hot-window size for SkewHotspot (default
	// Keys/64, at least 1).
	HotKeys int
	// HotShift is the hot-window rotation period for SkewHotspot
	// (default Duration/4: the hotspot moves three times per rung).
	HotShift time.Duration
}

// WithDefaults returns the spec with zero fields defaulted.
func (s Spec) WithDefaults() Spec {
	if s.Frontends == 0 {
		s.Frontends = 1
	}
	if s.QueueCap == 0 {
		s.QueueCap = 64
	}
	if s.Keys == 0 {
		s.Keys = 4096
	}
	if s.ReadFrac == 0 {
		s.ReadFrac = 0.75
	}
	if s.DeleteFrac == 0 {
		s.DeleteFrac = 0.02
	}
	if s.CASFrac == 0 {
		s.CASFrac = 0.05
	}
	if s.ValBytes == 0 {
		s.ValBytes = 32
	}
	if s.ZipfS == 0 {
		s.ZipfS = 1.2
	}
	if s.HotFrac == 0 {
		s.HotFrac = 0.9
	}
	if s.HotKeys == 0 {
		s.HotKeys = s.Keys / 64
		if s.HotKeys < 1 {
			s.HotKeys = 1
		}
	}
	if s.HotShift == 0 {
		s.HotShift = s.Duration / 4
		if s.HotShift <= 0 {
			s.HotShift = time.Second
		}
	}
	return s
}

// Gen is one frontend's deterministic op stream: Poisson arrivals at
// Rate/Frontends with the spec's key skew and op mix.
type Gen struct {
	spec Spec
	rnd  *rand.Rand
	zipf *rand.Zipf
	t    time.Duration
	rate float64 // this frontend's arrival rate
}

// NewGen returns frontend f's stream for the spec. Streams for
// different frontends (and different seeds) are independent.
func NewGen(spec Spec, f int) *Gen {
	spec = spec.WithDefaults()
	// Golden-ratio mixing keeps per-frontend streams decorrelated
	// while staying a pure function of (Seed, f).
	src := rand.NewSource(spec.Seed ^ int64(uint64(f+1)*0x9E3779B97F4A7C15))
	g := &Gen{spec: spec, rnd: rand.New(src), rate: spec.Rate / float64(spec.Frontends)}
	if spec.Skew == SkewZipf {
		g.zipf = rand.NewZipf(g.rnd, spec.ZipfS, 1, uint64(spec.Keys-1))
	}
	return g
}

// Next returns the stream's next op, or ok=false once the offered
// window is exhausted.
func (g *Gen) Next() (op Op, ok bool) {
	g.t += time.Duration(g.rnd.ExpFloat64() / g.rate * float64(time.Second))
	if g.t > g.spec.Duration {
		return Op{}, false
	}
	op.T = g.t
	op.Key = g.key()
	op.Kind = g.kind()
	return op, true
}

func (g *Gen) key() uint64 {
	s := g.spec
	switch s.Skew {
	case SkewZipf:
		return g.zipf.Uint64()
	case SkewHotspot:
		epoch := int64(g.t / s.HotShift)
		// The window start jumps pseudo-randomly but deterministically
		// with each epoch.
		start := uint64(epoch*7919) * uint64(s.HotKeys) % uint64(s.Keys)
		if g.rnd.Float64() < s.HotFrac {
			return (start + uint64(g.rnd.Intn(s.HotKeys))) % uint64(s.Keys)
		}
		return uint64(g.rnd.Intn(s.Keys))
	default:
		return uint64(g.rnd.Intn(s.Keys))
	}
}

func (g *Gen) kind() OpKind {
	u := g.rnd.Float64()
	s := g.spec
	switch {
	case u < s.ReadFrac:
		return OpGet
	case u < s.ReadFrac+s.DeleteFrac:
		return OpDelete
	case u < s.ReadFrac+s.DeleteFrac+s.CASFrac:
		return OpCAS
	default:
		return OpPut
	}
}

// KeyBytes renders a key id as the store key ("u%07d" — a fixed-width
// session-id shape).
func KeyBytes(k uint64) []byte {
	return []byte(fmt.Sprintf("u%07d", k))
}

// ValBytes builds the deterministic value body for a key: n bytes
// derived from the key id, so a later read can attribute a value to
// its writer key.
func ValBytes(k uint64, n int) []byte {
	b := make([]byte, n)
	x := k*2654435761 + 1
	for i := range b {
		b[i] = byte(x >> (8 * uint(i%8)))
	}
	return b
}
