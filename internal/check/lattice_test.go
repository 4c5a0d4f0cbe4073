package check

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mirage/internal/core"
	"mirage/internal/obs"
)

// layer is one optional layer of the protocol stack: how a scenario
// turns it on, and the event that shows it did something. Failover's
// trigger is a crash, which TestLatticeCrashViolationsPinned brings, and
// Reliability's retransmissions need loss, which brings the layer to
// every cell anyway; neither names an event here.
type layer struct {
	name  string
	set   func(*core.Options)
	fires obs.EvType
}

var layers = []layer{
	{"Reliability", func(o *core.Options) { o.Reliability = &core.Reliability{} }, 0},
	{"Failover", func(o *core.Options) { o.Failover = &core.Failover{} }, 0},
	{"Placement", func(o *core.Options) {
		o.Placement = &core.Placement{Window: 20 * ms, MinRequests: 2, Share: 0.5, PingPong: 0.8, Cooldown: time.Hour}
	}, obs.EvMigrate},
	{"Replication", func(o *core.Options) { o.Replication = &core.Replication{Replicas: 2} }, obs.EvReplicate},
	{"AutoDelta", func(o *core.Options) { o.AutoDelta = fastAutoDelta() }, obs.EvRetune},
	{"InvalFanout", func(o *core.Options) { o.InvalFanout = 2 }, obs.EvRelay},
}

// cell is one point of the pairwise lattice: two layers, or one alone.
type cell struct{ a, b layer }

func (c cell) String() string {
	if c.a.name == c.b.name {
		return c.a.name
	}
	return c.a.name + "+" + c.b.name
}

// cells is every pair of layers once, and every layer alone: 21.
func cells() []cell {
	var out []cell
	for i := range layers {
		for j := i; j < len(layers); j++ {
			out = append(out, cell{layers[i], layers[j]})
		}
	}
	return out
}

// scenario is the lattice's cluster: six sites, two pages, Δ 5 ms, and
// the retry policy, under which AutoDelta has denials to tune on.
func (c cell) scenario(chaos string) Scenario {
	sc := Scenario{Sites: 6, Pages: 2, Delta: 5 * ms, Chaos: chaos}
	c.a.set(&sc.Options)
	c.b.set(&sc.Options)
	return sc
}

// cellRun is what the walks of one cell showed.
type cellRun struct {
	violating int                // seeds whose run broke an invariant
	first     *Repro             // the first such run, unshrunk
	fired     map[obs.EvType]int // events of each type over all seeds
}

// walkCell runs the scenario once per seed, as RandomWalk does but
// through every seed, with 48 ops a walk. skew puts every other op at
// site 1, so one site's demand dominates and Placement has a library to
// move; uniform ops never migrate.
func walkCell(sc Scenario, seeds int, skew bool) cellRun {
	out := cellRun{fired: make(map[obs.EvType]int)}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if skew {
			sc.Ops = GenOps(seed, sc.Sites, sc.Pages, 48)
			for i := 1; i < len(sc.Ops); i += 2 {
				sc.Ops[i].Site = 1
			}
		}
		run := sc.walk(seed, 48)
		sch := &scheduler{rng: newRng(seed)}
		r := runScenario(run, sch, 0)
		for _, ev := range r.trace {
			out.fired[ev.Type]++
		}
		if len(r.violations) > 0 {
			if out.violating == 0 {
				out.first = &Repro{Scenario: run, Choices: sch.taken, Violations: r.violations}
			}
			out.violating++
		}
	}
	return out
}

// latticeLoss is the lattice's lossy plan; each walk seeds it.
const latticeLoss = "drop p=0.1; dup p=0.1; delay p=0.2 max=5ms"

// TestLayerLattice explores every pair of layers, and every layer alone,
// with no fault plan and under loss, 8 seeds a cell: every run is clean,
// and every layer of every cell fired — a clean pass over a layer that
// never did anything proves nothing.
func TestLayerLattice(t *testing.T) {
	for _, plan := range []string{"", latticeLoss} {
		for _, c := range cells() {
			r := walkCell(c.scenario(plan), 8, true)
			want := []obs.EvType{c.a.fires, c.b.fires}
			if plan != "" {
				want = append(want, obs.EvRetransmit)
			}
			t.Logf("plan %q, %v: migrate=%d replicate=%d retune=%d relay=%d retransmit=%d",
				plan, c, r.fired[obs.EvMigrate], r.fired[obs.EvReplicate],
				r.fired[obs.EvRetune], r.fired[obs.EvRelay], r.fired[obs.EvRetransmit])
			for _, ev := range want {
				if ev != 0 && r.fired[ev] == 0 {
					t.Errorf("plan %q, %v: no %v in 8 walks; the layer never fired", plan, c, ev)
				}
			}
			if r.first != nil {
				shrunk := Shrink(*r.first, ExploreOpts{})
				var buf bytes.Buffer
				shrunk.Encode(&buf)
				t.Errorf("plan %q, %v: %d of 8 walks violated, first %v; shrunk repro:\n%s",
					plan, c, r.violating, r.first.Violations[0], buf.String())
			}
		}
	}
}

// TestLatticeCrashViolationsPinned runs the lattice's cells under a
// crash, with uniform 48-op walks: of the library (site 0), 64 seeds a
// cell, and of a holder (site 3), 8 seeds a cell. Both find the lease
// gap of ROADMAP item 6 in small, shrinkable form — a copy that no
// record lists outlives a write. Each cell's count of violating seeds is
// a pin: a change may lower it, never raise it. Every cell whose stack
// resolves to one with Failover must take over at least once.
func TestLatticeCrashViolationsPinned(t *testing.T) {
	rows := []struct {
		plan  string
		seeds int
		max   map[string]int // cells not named pin 0
	}{
		{"crash site=0 from=40ms", 64, map[string]int{
			"Reliability+Failover": 3, "Reliability+Placement": 3,
			"Failover": 3, "Failover+Placement": 3, "Failover+AutoDelta": 4,
			"Failover+InvalFanout": 3, "Placement": 3, "Placement+AutoDelta": 4,
			"Placement+InvalFanout": 3, "Replication+AutoDelta": 3,
		}},
		{"crash site=3 from=40ms", 8, map[string]int{
			"Reliability": 2, "Reliability+Failover": 3, "Reliability+Placement": 4,
			"Reliability+Replication": 2, "Reliability+InvalFanout": 2,
			"Failover": 3, "Failover+Placement": 4, "Failover+Replication": 2,
			"Failover+AutoDelta": 1, "Failover+InvalFanout": 3, "Placement": 4,
			"Placement+Replication": 4, "Placement+AutoDelta": 5, "Placement+InvalFanout": 4,
			"Replication": 2, "Replication+AutoDelta": 1, "Replication+InvalFanout": 3,
			"InvalFanout": 2,
		}},
	}
	for _, row := range rows {
		for _, c := range cells() {
			sc := c.scenario(row.plan)
			r := walkCell(sc, row.seeds, false)
			resolved, err := sc.Options.ForCluster(sc.Sites, sc.Delta, true)
			if err != nil {
				t.Fatal(err)
			}
			takeovers := r.fired[obs.EvRecover] + r.fired[obs.EvElect]
			if resolved.Failover != nil && takeovers == 0 {
				t.Errorf("%q, %v: no takeover in %d walks; Failover never fired", row.plan, c, row.seeds)
			}
			t.Logf("%q, %v: %d of %d seeds violate (pin %d); recover=%d elect=%d",
				row.plan, c, r.violating, row.seeds, row.max[c.String()],
				r.fired[obs.EvRecover], r.fired[obs.EvElect])
			if r.violating > row.max[c.String()] {
				t.Errorf("%q, %v: %d of %d seeds violate, pinned at %d",
					row.plan, c, r.violating, row.seeds, row.max[c.String()])
			}
		}
	}
}

// TestPinnedReprosReplay replays the shrunk counterexamples committed
// under testdata: a library crash and a holder crash (the lease gap of
// ROADMAP item 6), and a library crash after which the clock site's
// self-upgrade finds its own copy invalid and the engine panics. Each
// replays byte for byte the same twice, and its violation count is a
// pin: a change may lower it, never raise it.
func TestPinnedReprosReplay(t *testing.T) {
	for _, pin := range []struct {
		file string
		max  int
	}{
		{"lattice-library-crash.json", 1},
		{"lattice-holder-crash.json", 1},
		{"panic-self-upgrade.json", 1},
	} {
		b, err := os.ReadFile(filepath.Join("testdata", pin.file))
		if err != nil {
			t.Fatal(err)
		}
		r, err := DecodeRepro(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", pin.file, err)
		}
		a, again := r.Replay(), r.Replay()
		if a.TraceSHA != again.TraceSHA {
			t.Fatalf("%s: replays diverged", pin.file)
		}
		t.Logf("%s: %d violations (pin %d): %v", pin.file, len(a.Violations), pin.max, a.Violations)
		if len(a.Violations) > pin.max {
			t.Errorf("%s: %d violations, pinned at %d", pin.file, len(a.Violations), pin.max)
		}
	}
}
