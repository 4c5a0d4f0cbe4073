package check

import (
	"bytes"
	"testing"
	"time"

	"mirage/internal/obs"
)

// tinyScenario is the canonical exhaustively-enumerable configuration:
// two sites, one page, conflicting writes plus a read-back.
func tinyScenario() Scenario {
	return Scenario{
		Sites: 2, Pages: 1, Delta: 10 * ms, Policy: 2, // queue
		Ops: []Op{
			{Site: 0, Write: true, Val: 7},
			{Site: 1, Write: true, Val: 9},
			{Site: 1, Write: false},
			{Site: 0, Write: false},
		},
	}
}

// windowScenario provokes a revocation attempt inside a generous Δ
// window: site 1 takes the page (and the window), site 2 immediately
// wants it. Correct engines park the invalidation until expiry; the
// mirage_mutation build honors it early, which the mutation test must
// catch. Shared with mutation_test.go.
func windowScenario() Scenario {
	return Scenario{
		Sites: 3, Pages: 1, Delta: 50 * ms, Policy: 2,
		Ops: []Op{
			{Site: 1, Write: true, Val: 7},
			{Site: 2, Write: true, Val: 9},
		},
	}
}

// replScenario is the replicated-takeover configuration shared with
// mutation_test.go: 3 sites, replication factor 2, the leader crashing
// mid-run. Sites 1 and 2 each alternate writing their own page and
// reading the other's, so every op needs a fresh library cycle (the
// other site's write keeps invalidating the read copy) and the workload
// stays active across the crash instant: early cycles commit through
// the gated quorum, later ones run into the dead leader and force the
// give-up → election takeover. Δ is 0 so the window invariant (and its
// own mutation) stays out of the picture: what this scenario checks is
// the replicated log.
func replScenario() Scenario {
	var ops []Op
	for i := 0; i < 6; i++ {
		ops = append(ops,
			Op{Site: 1, Page: 0, Write: true, Val: byte(1 + i)},
			Op{Site: 1, Page: 1, Write: false},
			Op{Site: 2, Page: 1, Write: true, Val: byte(101 + i)},
			Op{Site: 2, Page: 0, Write: false},
		)
	}
	return Scenario{
		Sites: 3, Pages: 2, Policy: 2, Replicas: 2,
		Chaos: "crash site=0 from=25ms",
		Ops:   ops,
	}
}

// In the default build the replicated takeover must explore clean: the
// election installs a log tail at or past every committed mutation
// (acked-append-lost) and every site's applied stream agrees
// (log-prefix).
func TestReplScenarioCleanDefault(t *testing.T) {
	// The default schedule must actually exercise what the scenario
	// claims: commits before the crash, an election takeover after it.
	base := runScenario(replScenario(), &scheduler{}, 0)
	var commits, elects int
	for _, ev := range base.trace {
		switch {
		case ev.Type == obs.EvReplicate && ev.From == ev.Site:
			commits++
		case ev.Type == obs.EvElect:
			elects++
		}
	}
	if commits == 0 || elects == 0 {
		t.Fatalf("scenario exercised %d commits and %d elections; want both > 0", commits, elects)
	}

	res := Exhaustive(replScenario(), ExploreOpts{MaxRuns: 50})
	if res.Counterexample != nil {
		t.Fatalf("violation in correct protocol: %v", res.Violations)
	}
}

// In the default build the same scenario must explore clean — the
// window is always waited out (Table 1), under every policy.
func TestWindowScenarioCleanDefault(t *testing.T) {
	for pol := 0; pol <= 2; pol++ {
		sc := windowScenario()
		sc.Policy = pol
		res := Exhaustive(sc, ExploreOpts{MaxRuns: 5000})
		if res.Counterexample != nil {
			t.Fatalf("policy %d: %v", pol, res.Violations)
		}
		if !res.Complete {
			t.Fatalf("policy %d: window scenario should enumerate fully (runs=%d)", pol, res.Runs)
		}
	}
}

func TestExhaustiveTinyComplete(t *testing.T) {
	res := Exhaustive(tinyScenario(), ExploreOpts{})
	t.Logf("runs=%d choicePoints=%d deepest=%d maxBranch=%d",
		res.Runs, res.ChoicePoints, res.Deepest, res.MaxBranch)
	if res.Counterexample != nil {
		t.Fatalf("violation in correct protocol: %v", res.Violations)
	}
	if !res.Complete {
		t.Fatalf("enumeration incomplete (truncated=%d)", res.Truncated)
	}
	if res.Runs < 2 {
		t.Fatalf("expected >1 interleaving, got %d runs", res.Runs)
	}
}

func TestExhaustiveAllPolicies(t *testing.T) {
	for pol := 0; pol <= 2; pol++ {
		sc := tinyScenario()
		sc.Policy = pol
		sc.Ops = sc.Ops[:3] // keep retry-policy trees small
		res := Exhaustive(sc, ExploreOpts{MaxDepth: 20, MaxRuns: 20000})
		t.Logf("policy=%d runs=%d complete=%v truncated=%d", pol, res.Runs, res.Complete, res.Truncated)
		if res.Counterexample != nil {
			t.Fatalf("policy %d: violation in correct protocol: %v", pol, res.Violations)
		}
	}
}

func TestExhaustiveMaxRunsBound(t *testing.T) {
	res := Exhaustive(tinyScenario(), ExploreOpts{MaxRuns: 3})
	if res.Runs != 3 || res.Complete {
		t.Fatalf("runs=%d complete=%v, want exactly 3 incomplete", res.Runs, res.Complete)
	}
}

func TestRandomWalkCleanUnderChaos(t *testing.T) {
	sc := Scenario{
		Sites: 3, Pages: 2, Delta: 5 * ms, Policy: 2,
		Chaos: "drop p=0.15; dup p=0.1; delay p=0.2 max=5ms",
	}
	seeds := make([]int64, 12)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	res := RandomWalk(sc, seeds, ExploreOpts{OpsPerWalk: 10})
	t.Logf("runs=%d choicePoints=%d deepest=%d", res.Runs, res.ChoicePoints, res.Deepest)
	if res.Counterexample != nil {
		t.Fatalf("violation under chaos with reliability on: %v", res.Violations)
	}
	if res.Runs != len(seeds) {
		t.Fatalf("ran %d walks, want %d", res.Runs, len(seeds))
	}
}

func TestRandomWalkCleanNoChaos(t *testing.T) {
	sc := Scenario{Sites: 3, Pages: 2, Delta: 8 * ms, Policy: 0}
	res := RandomWalk(sc, []int64{101, 102, 103, 104, 105}, ExploreOpts{OpsPerWalk: 12})
	if res.Counterexample != nil {
		t.Fatalf("violation in correct protocol: %v", res.Violations)
	}
}

// A starved run must surface as a liveness counterexample with a
// replayable, shrunk repro — this exercises the whole counterexample
// pipeline without needing a protocol bug.
func TestStepBudgetProducesReplayableCounterexample(t *testing.T) {
	sc := tinyScenario()
	res := Exhaustive(sc, ExploreOpts{MaxSteps: 10, MaxRuns: 50})
	if res.Counterexample == nil {
		t.Fatal("expected a liveness counterexample under a 10-step budget")
	}
	wantInv(t, res.Violations, InvLiveness)
	r := *res.Counterexample
	// Shrinking must not leave irrelevant trailing choices.
	if n := len(r.Choices); n > 0 && r.Choices[n-1] == 0 {
		t.Fatalf("unshrunk trailing zero choices: %v", r.Choices)
	}
	// Hmm: replay runs with the full default step budget, so the
	// liveness violation will not reproduce there — the repro's
	// violations field is authoritative for budget-bound findings.
	if len(r.Violations) == 0 {
		t.Fatal("shrunk repro lost its violations")
	}
}

func TestReplayByteIdentical(t *testing.T) {
	r := Repro{Scenario: tinyScenario(), Choices: []int{1, 0, 1, 1, 0, 1}}
	a := r.Replay()
	b := r.Replay()
	if a.TraceSHA != b.TraceSHA || a.Events != b.Events || a.Steps != b.Steps {
		t.Fatalf("replays diverged: %+v vs %+v", a, b)
	}
	if a.Events == 0 {
		t.Fatal("replay produced no trace")
	}
	// A different schedule must generally produce a different trace —
	// sanity that the chooser actually steers execution.
	r2 := Repro{Scenario: tinyScenario(), Choices: nil}
	c := r2.Replay()
	if c.TraceSHA == a.TraceSHA {
		t.Log("note: chosen schedule coincided with FIFO; not failing, but suspicious")
	}
}

func TestReplayChaosDeterministic(t *testing.T) {
	sc := Scenario{
		Sites: 3, Pages: 1, Delta: 5 * ms, Policy: 2,
		Ops:   GenOps(42, 3, 1, 8),
		Chaos: "seed=42; drop p=0.2; delay p=0.3 max=4ms",
	}
	r := Repro{Scenario: sc, Choices: []int{2, 1, 0, 1}}
	a, b := r.Replay(), r.Replay()
	if a.TraceSHA != b.TraceSHA {
		t.Fatalf("chaos replay diverged: %s vs %s", a.TraceSHA, b.TraceSHA)
	}
}

func TestReproEncodeDecodeRoundTrip(t *testing.T) {
	r := Repro{Scenario: tinyScenario(), Choices: []int{1, 2, 3}}
	r.Scenario.Chaos = "seed=7; drop p=0.1"
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRepro(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scenario.Sites != r.Scenario.Sites || got.Scenario.Chaos != r.Scenario.Chaos ||
		len(got.Choices) != 3 || got.Choices[1] != 2 {
		t.Fatalf("round trip mangled repro: %+v", got)
	}
	if got.Replay().TraceSHA != r.Replay().TraceSHA {
		t.Fatal("decoded repro replays differently")
	}
}

func TestDecodeReproRejectsGarbage(t *testing.T) {
	if _, err := DecodeRepro(bytes.NewReader([]byte("{"))); err == nil {
		t.Fatal("want error for truncated JSON")
	}
	if _, err := DecodeRepro(bytes.NewReader([]byte("{}"))); err == nil {
		t.Fatal("want error for empty scenario")
	}
}

func TestGenOpsDeterministic(t *testing.T) {
	a := GenOps(7, 3, 2, 10)
	b := GenOps(7, 3, 2, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	writes := 0
	for _, op := range a {
		if op.Write {
			writes++
		}
	}
	if writes == 0 || writes == len(a) {
		t.Fatalf("degenerate workload: %d/%d writes", writes, len(a))
	}
}

func TestScenarioBoundsChecked(t *testing.T) {
	sc := Scenario{Sites: 2, Pages: 1, Ops: []Op{{Site: 5, Write: true}}}
	res := runScenario(sc, &scheduler{}, 0)
	wantInv(t, res.violations, InvSchema)
}

func TestSchedulerPrefixThenDefault(t *testing.T) {
	s := &scheduler{choices: []int{1, 9}}
	if got := s.choose(3); got != 1 {
		t.Fatalf("prescribed pick = %d, want 1", got)
	}
	if got := s.choose(3); got != 0 {
		t.Fatalf("out-of-range prescription = %d, want clamp to 0", got)
	}
	if got := s.choose(4); got != 0 {
		t.Fatalf("beyond-prefix pick = %d, want FIFO 0", got)
	}
	if len(s.branch) != 3 || s.branch[2] != 4 {
		t.Fatalf("branch record %v", s.branch)
	}
}

func BenchmarkExploredRun(b *testing.B) {
	sc := tinyScenario()
	for i := 0; i < b.N; i++ {
		runScenario(sc, &scheduler{}, 0)
	}
}

var _ = time.Second

// TestLeakedHoldIsCaught shows that the idle-word invariant bites: a
// drained cluster passes the final checks, the same cluster with one
// hold taken and its Unhold skipped fails them on exactly that page, and
// passes again once the page is given back.
func TestLeakedHoldIsCaught(t *testing.T) {
	n := newMigNet(t, 2, obs.New())
	n.access(0, 0, true, 1)
	n.access(1, 0, false, 0)
	n.k.Run()
	sc := Scenario{Sites: 2, Pages: 2}
	final := func() []Violation {
		return append(idle(n.engines, []int32{scenarioSeg}), finalChecks(sc, n.engines)...)
	}
	if v := final(); len(v) != 0 {
		t.Fatalf("drained cluster: %v", v)
	}
	for _, write := range []bool{false, true} {
		m := n.engines[0].Seg(scenarioSeg)
		if _, ok := m.Hold(1, write); !ok {
			t.Fatalf("library site refused a hold (write=%v) on its own page", write)
		}
		v := final()
		if len(v) != 1 || v[0].Invariant != InvIdleWord {
			t.Fatalf("leaked hold (write=%v): violations = %v, want one %s", write, v, InvIdleWord)
		}
		m.Unhold(1, write)
		if v := final(); len(v) != 0 {
			t.Fatalf("after the Unhold (write=%v): %v", write, v)
		}
	}
}
