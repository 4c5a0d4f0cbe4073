package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"mirage/internal/obs"
	"mirage/internal/wire"
)

// Action is the injector's verdict for one message.
type Action struct {
	Drop  bool
	Dup   int // extra copies to deliver
	Delay time.Duration
}

// RuleStats are cumulative counters for one plan rule.
type RuleStats struct {
	Rule    string // the rule in plan grammar
	Matched int    // messages the (from,to,kind) filter matched
	Applied int    // matches where the probability coin landed
}

// Stats is a cumulative snapshot of everything the injector did.
type Stats struct {
	Decisions   int // Apply calls (non-loopback messages seen)
	Dropped     int // messages lost to drop rules
	Duplicated  int // extra copies created
	Delayed     int // messages held by delay rules
	Partitioned int // messages cut by a partition window
	Rules       []RuleStats
}

// String renders a compact human-readable summary.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "decisions=%d dropped=%d duplicated=%d delayed=%d partitioned=%d",
		s.Decisions, s.Dropped, s.Duplicated, s.Delayed, s.Partitioned)
	for _, r := range s.Rules {
		fmt.Fprintf(&b, "\n  [%s] matched=%d applied=%d", r.Rule, r.Matched, r.Applied)
	}
	return b.String()
}

// Injector executes a Plan. All randomness comes from one generator
// seeded by Plan.Seed and consumed in Apply-call order, so any driver
// that presents messages in a deterministic order (the simulator does)
// gets an identical fault schedule from an identical seed.
//
// An Injector is safe for concurrent use; live transports call Apply
// from many goroutines.
type Injector struct {
	mu    sync.Mutex
	plan  Plan
	rng   *rand.Rand
	stats Stats
	obs   *obs.Obs
}

// SetObs attaches an observability sink: every verdict is then also
// counted (and, when tracing, emitted as an EvChaos event attributed
// to the sending site). Call before traffic starts.
func (in *Injector) SetObs(o *obs.Obs) {
	in.mu.Lock()
	in.obs = o
	in.mu.Unlock()
}

// observe records one verdict, adding n to its counter; called with
// in.mu held. Chaos verdicts are timestamped with the send time the
// driver passed to Apply, so simulator traces stay deterministic.
func (in *Injector) observe(now time.Duration, from, to int, kind wire.Kind, c obs.Counter, verdict, n int64) {
	in.obs.CountN(from, c, n)
	if in.obs.Tracing() {
		in.obs.Emit(obs.Event{
			T: now, Site: int32(from), Type: obs.EvChaos, Kind: kind,
			From: int32(from), To: int32(to), Arg: verdict,
		})
	}
}

// New builds an injector for the plan. The plan is copied; a zero seed
// is replaced with 1 so "no seed" is still reproducible.
func New(plan Plan) *Injector {
	p := plan.clone()
	if p.Seed == 0 {
		p.Seed = 1
	}
	in := &Injector{plan: p, rng: rand.New(rand.NewSource(p.Seed))}
	in.stats.Rules = make([]RuleStats, len(p.Rules))
	for i, r := range p.Rules {
		in.stats.Rules[i].Rule = r.String()
	}
	return in
}

// Plan returns a copy of the executing plan.
func (in *Injector) Plan() Plan {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.plan.clone()
}

func (p Plan) clone() Plan {
	return Plan{
		Seed:       p.Seed,
		Rules:      append([]Rule(nil), p.Rules...),
		Partitions: append([]Partition(nil), p.Partitions...),
	}
}

// Stats returns a snapshot of the counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.stats
	s.Rules = append([]RuleStats(nil), in.stats.Rules...)
	return s
}

// Apply decides the fate of one message sent at time now. Partition
// windows are checked first and consume no randomness;
// then every matching rule draws from the seeded generator in plan
// order and the results compose: any drop wins, duplications add,
// delays add.
func (in *Injector) Apply(now time.Duration, from, to int, kind wire.Kind) Action {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Decisions++
	for _, p := range in.plan.Partitions {
		if p.covers(now) && p.cut(from, to) {
			in.stats.Partitioned++
			in.observe(now, from, to, kind, obs.CChaosPartition, obs.ChaosPartition, 1)
			return Action{Drop: true}
		}
	}
	var a Action
	for i := range in.plan.Rules {
		r := &in.plan.Rules[i]
		if !r.matches(from, to, kind) {
			continue
		}
		rs := &in.stats.Rules[i]
		rs.Matched++
		if in.rng.Float64() >= r.P {
			continue
		}
		rs.Applied++
		switch r.Op {
		case OpDrop:
			a.Drop = true
			in.stats.Dropped++
			in.observe(now, from, to, kind, obs.CChaosDrop, obs.ChaosDrop, 1)
		case OpDup:
			n := max(r.Copies, 1)
			a.Dup += n
			in.stats.Duplicated += n
			in.observe(now, from, to, kind, obs.CChaosDup, obs.ChaosDup, int64(n))
		case OpDelay:
			span := r.MaxDelay - r.MinDelay
			d := r.MinDelay
			if span > 0 {
				d += time.Duration(in.rng.Int63n(int64(span) + 1))
			}
			a.Delay += d
			in.stats.Delayed++
			in.observe(now, from, to, kind, obs.CChaosDelay, obs.ChaosDelay, 1)
		}
	}
	if a.Drop {
		// A dropped message is gone; duplication/delay of it is moot
		// (the counters above still record that the rules fired, which
		// keeps the rng consumption schedule-independent).
		a.Dup, a.Delay = 0, 0
	}
	return a
}
