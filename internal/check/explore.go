package check

import (
	"math/rand"

	"mirage/internal/chaos"
)

// ExploreOpts bounds an exploration.
type ExploreOpts struct {
	// MaxRuns caps executed schedules; 0 = unlimited for Exhaustive
	// (runs until the choice tree is exhausted) and len(seeds) for
	// RandomWalk.
	MaxRuns int
	// MaxDepth is how many choice points (counted from the start of a
	// run) are branched exhaustively; ties past it take kernel FIFO
	// order and are counted in Result.Truncated. 0 = unlimited.
	MaxDepth int
	// MaxSteps is the kernel step budget per run (0 = 2e6); exceeding
	// it is a liveness violation, not a hang.
	MaxSteps int
	// OpsPerWalk is the generated workload length when RandomWalk gets
	// a scenario with nil Ops (0 = 8).
	OpsPerWalk int
}

// Result summarizes one exploration.
type Result struct {
	// Runs is the number of schedules executed.
	Runs int
	// ChoicePoints is the total scheduling decisions taken across runs.
	ChoicePoints int64
	// Deepest is the most choice points seen in a single run; MaxBranch
	// the widest tie.
	Deepest   int
	MaxBranch int
	// Complete reports that Exhaustive enumerated the entire bounded
	// choice tree (always false for RandomWalk).
	Complete bool
	// Truncated counts runs that hit ties past MaxDepth which were not
	// branched.
	Truncated int
	// Counterexample is the shrunk, replayable repro of the first
	// violating schedule, nil when every explored schedule was clean.
	Counterexample *Repro
	// Violations are the counterexample's violations as its replay
	// reports them.
	Violations []Violation
}

func (r *Result) observe(sch *scheduler) {
	r.Runs++
	r.ChoicePoints += int64(len(sch.branch))
	if len(sch.branch) > r.Deepest {
		r.Deepest = len(sch.branch)
	}
	for _, b := range sch.branch {
		if b > r.MaxBranch {
			r.MaxBranch = b
		}
	}
}

func (r *Result) counterexample(sc Scenario, sch *scheduler, opt ExploreOpts) {
	repro := Repro{Scenario: sc, Choices: append([]int(nil), sch.taken...)}
	repro = Shrink(repro, opt)
	r.Counterexample = &repro
	r.Violations = repro.Violations
}

// Exhaustive enumerates every same-instant interleaving of the scenario
// (depth-first over the choice tree via an odometer on recorded
// branching factors), stopping at the first violating schedule. Only
// tiny configurations are tractable: 2–3 sites, 1–2 pages, ≤6 ops.
func Exhaustive(sc Scenario, opt ExploreOpts) Result {
	var res Result
	var prefix []int
	for {
		if opt.MaxRuns > 0 && res.Runs >= opt.MaxRuns {
			return res
		}
		sch := &scheduler{choices: prefix}
		r := runScenario(sc, sch, opt.MaxSteps)
		res.observe(sch)
		if len(r.violations) > 0 {
			res.counterexample(sc, sch, opt)
			return res
		}
		// Odometer increment: find the rightmost branched choice point
		// with siblings left, bump it, and clear everything after.
		depth := len(sch.branch)
		if opt.MaxDepth > 0 && depth > opt.MaxDepth {
			for _, b := range sch.branch[opt.MaxDepth:] {
				if b > 1 {
					res.Truncated++
					break
				}
			}
			depth = opt.MaxDepth
		}
		j := depth - 1
		for j >= 0 && sch.taken[j]+1 >= sch.branch[j] {
			j--
		}
		if j < 0 {
			res.Complete = res.Truncated == 0
			return res
		}
		prefix = append(append(prefix[:0:0], sch.taken[:j]...), sch.taken[j]+1)
	}
}

// RandomWalk explores one seeded random schedule per seed, stopping at
// the first violation. When the scenario has nil Ops a workload is
// generated per seed (GenOps), and a chaos plan with seed 0 inherits
// the walk's seed — so each seed explores a distinct (workload, fault
// schedule, interleaving) triple. The returned counterexample's
// scenario has the generated ops and seeded plan materialized: replay
// needs no seed.
func RandomWalk(sc Scenario, seeds []int64, opt ExploreOpts) Result {
	var res Result
	for _, seed := range seeds {
		if opt.MaxRuns > 0 && res.Runs >= opt.MaxRuns {
			return res
		}
		run := sc.walk(seed, opt.OpsPerWalk)
		sch := &scheduler{rng: newRng(seed)}
		r := runScenario(run, sch, opt.MaxSteps)
		res.observe(sch)
		if len(r.violations) > 0 {
			res.counterexample(run, sch, opt)
			return res
		}
	}
	return res
}

// walk is the scenario RandomWalk runs for a seed: n generated ops (0
// = 8) when it has none, and a chaos plan without a seed given this one.
func (sc Scenario) walk(seed int64, n int) Scenario {
	if sc.Ops == nil {
		if n <= 0 {
			n = 8
		}
		sc.Ops = GenOps(seed, sc.Sites, max(sc.Pages, 1), n)
	}
	if sc.Chaos != "" {
		if p, err := chaos.Parse(sc.Chaos); err == nil && p.Seed == 0 {
			p.Seed = seed
			sc.Chaos = p.String()
		}
	}
	return sc
}

// newRng is the one rand constructor in the package; exploration and
// shrinking must derive all randomness from explicit seeds.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// GenOps generates a deterministic n-op workload for a seed: random
// sites and pages, ~half writes, each write with a distinct value so
// the latest-write oracle has teeth.
func GenOps(seed int64, sites, pages, n int) []Op {
	rng := rand.New(rand.NewSource(seed ^ 0x6d697261)) // "mira"
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{
			Site:  rng.Intn(sites),
			Page:  int32(rng.Intn(pages)),
			Write: rng.Intn(2) == 0,
		}
		if ops[i].Write {
			ops[i].Val = byte(1 + i%250)
		}
	}
	return ops
}
