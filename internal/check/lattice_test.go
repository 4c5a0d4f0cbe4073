package check

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mirage/internal/core"
	"mirage/internal/obs"
)

// layer is one optional layer of the protocol stack: how a scenario
// turns it on, whether a resolved stack has it, and the event that shows
// it did something. Reliability's retransmissions need loss, which
// brings the layer to every cell anyway, so it names no event here.
type layer struct {
	name  string
	set   func(*core.Options)
	has   func(core.Options) bool
	fires obs.EvType
}

var layers = []layer{
	{"Reliability", func(o *core.Options) { o.Reliability = &core.Reliability{} },
		func(o core.Options) bool { return o.Reliability != nil }, 0},
	{"Failover", func(o *core.Options) { o.Failover = &core.Failover{Replicas: 2} },
		func(o core.Options) bool { return o.Failover != nil }, obs.EvReplicate},
	{"Placement", func(o *core.Options) {
		o.Placement = &core.Placement{Window: 20 * ms, MinRequests: 2, Share: 0.5, PingPong: 0.8, Cooldown: time.Hour}
	}, func(o core.Options) bool { return o.Placement != nil }, obs.EvMigrate},
	{"AutoDelta", func(o *core.Options) { o.AutoDelta = fastAutoDelta() },
		func(o core.Options) bool { return o.AutoDelta != nil }, obs.EvRetune},
	{"InvalFanout", func(o *core.Options) { o.InvalFanout = 2 },
		func(o core.Options) bool { return o.InvalFanout >= 2 }, obs.EvRelay},
}

// cell is one point of the lattice: a set of layers, named by the stack
// it resolves to.
type cell struct {
	name string
	set  []layer
}

func (c cell) String() string { return c.name }

// cells is every subset of the layers, de-duplicated by the stack
// ForCluster resolves it to on the lattice's cluster, with or without a
// chaos plan: 24 stacks without one, 16 with one, where every stack has
// Reliability.
func cells(chaos bool) []cell {
	var out []cell
	seen := make(map[string]bool)
	for mask := 0; mask < 1<<len(layers); mask++ {
		var c cell
		var sc Scenario
		for i, l := range layers {
			if mask&(1<<i) != 0 {
				c.set = append(c.set, l)
				l.set(&sc.Options)
			}
		}
		resolved, err := sc.Options.ForCluster(latticeSites, 5*ms, chaos)
		if err != nil {
			panic(err)
		}
		var names []string
		for _, l := range layers {
			if l.has(resolved) {
				names = append(names, l.name)
			}
		}
		c.name = strings.Join(names, "+")
		if c.name == "" {
			c.name = "paper"
		}
		if !seen[c.name] {
			seen[c.name] = true
			out = append(out, c)
		}
	}
	return out
}

// latticeSites is the lattice's cluster size.
const latticeSites = 6

// scenario is the lattice's cluster: six sites, two pages, Δ 5 ms, and
// the retry policy, under which AutoDelta has denials to tune on.
func (c cell) scenario(chaos string) Scenario {
	sc := Scenario{Sites: latticeSites, Pages: 2, Delta: 5 * ms, Chaos: chaos}
	for _, l := range c.set {
		l.set(&sc.Options)
	}
	return sc
}

// cellRun is what the walks of one cell showed.
type cellRun struct {
	violating int                // seeds whose run broke an invariant
	first     *Repro             // the first such run, unshrunk
	fired     map[obs.EvType]int // events of each type over all seeds
}

// The walks' shapes. skewReads puts every other op at site 1, where a
// write invalidates the readers the random ops left behind, so
// InvalFanout has trees to relay; skewWrites makes those ops writes,
// so site 1's demand dominates a window and Placement has a library to
// move. A skewed read at site 1 is mostly a local hit: under skewReads
// site 1 held the 50 % share of a 20 ms window in at most one of 8
// walks, and which one depended on how same-instant ties fell, which
// the reliability layer's acks move. Under skewWrites most readers are
// invalidated before a tree can form. uniform ops never migrate.
const (
	uniform = iota
	skewReads
	skewWrites
)

// walkCell runs the scenario once per seed, as RandomWalk does but
// through every seed, with 48 ops a walk of the given shape.
func walkCell(sc Scenario, seeds int, shape int) cellRun {
	out := cellRun{fired: make(map[obs.EvType]int)}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if shape != uniform {
			sc.Ops = GenOps(seed, sc.Sites, sc.Pages, 48)
			for i := 1; i < len(sc.Ops); i += 2 {
				sc.Ops[i].Site = 1
				if shape == skewWrites {
					sc.Ops[i].Write, sc.Ops[i].Val = true, byte(1+i%250)
				}
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

// TestLayerLattice explores every stack the layers resolve to, with no
// fault plan and under loss, 8 seeds a cell in each skewed shape: every
// run is clean, and every layer of every cell fired in one shape or the
// other — a clean pass over a layer that never did anything proves
// nothing.
func TestLayerLattice(t *testing.T) {
	for _, plan := range []string{"", latticeLoss} {
		for _, c := range cells(plan != "") {
			fired := make(map[obs.EvType]int)
			for _, shape := range []int{skewReads, skewWrites} {
				r := walkCell(c.scenario(plan), 8, shape)
				for ev, n := range r.fired {
					fired[ev] += n
				}
				if r.first != nil {
					shrunk := Shrink(*r.first, ExploreOpts{})
					var buf bytes.Buffer
					shrunk.Encode(&buf)
					t.Errorf("plan %q, %v, shape %d: %d of 8 walks violated, first %v; shrunk repro:\n%s",
						plan, c, shape, r.violating, r.first.Violations[0], buf.String())
				}
			}
			want := []obs.EvType{}
			for _, l := range c.set {
				want = append(want, l.fires)
			}
			if plan != "" {
				want = append(want, obs.EvRetransmit)
			}
			t.Logf("plan %q, %v: migrate=%d replicate=%d retune=%d relay=%d retransmit=%d",
				plan, c, fired[obs.EvMigrate], fired[obs.EvReplicate],
				fired[obs.EvRetune], fired[obs.EvRelay], fired[obs.EvRetransmit])
			for _, ev := range want {
				if ev != 0 && fired[ev] == 0 {
					t.Errorf("plan %q, %v: no %v in 16 walks; the layer never fired", plan, c, ev)
				}
			}
		}
	}
}

// TestLatticeCrashViolationsPinned runs the lattice's stacks under three
// faults, with uniform 48-op walks: a crash of the library (site 0), 64
// seeds a stack; a crash of a holder (site 3), 8 seeds; and a partition
// that cuts the library and two holders off from the other three sites
// for 360 ms, 32 seeds. A chaos crash is a one-site partition: the site
// keeps running. The holder rows find the lease gap of ROADMAP item 6 in
// small, shrinkable form — a copy that no record lists outlives a write.
// Each stack's count of violating seeds is a pin: a change may lower
// it, never raise it. Every stack with Failover takes over at least once
// when its library is cut off, and no stack takes over when a holder
// outside the library's group is; the partition keeps the library with
// its group, and a takeover there is neither required nor ruled out.
func TestLatticeCrashViolationsPinned(t *testing.T) {
	const some, none = 1, -1
	rows := []struct {
		plan     string
		seeds    int
		takeover int            // some, none, or 0: either
		max      map[string]int // stacks not named pin 0
	}{
		{"crash site=0 from=40ms", 64, some, map[string]int{}},
		{"crash site=3 from=40ms", 8, none, map[string]int{
			"Reliability": 2, "Reliability+Placement": 2,
			"Reliability+InvalFanout": 2, "Reliability+Placement+InvalFanout": 2,
		}},
		{"partition sites=0,1,2 from=40ms until=400ms", 32, 0, map[string]int{
			"Reliability": 5, "Reliability+Failover": 1, "Reliability+Placement": 5,
			"Reliability+Failover+Placement": 1, "Reliability+InvalFanout": 5,
			"Reliability+Failover+InvalFanout": 3, "Reliability+Placement+InvalFanout": 5,
			"Reliability+Failover+Placement+InvalFanout": 3,
		}},
	}
	for _, row := range rows {
		for _, c := range cells(true) {
			sc := c.scenario(row.plan)
			r := walkCell(sc, row.seeds, uniform)
			takeovers := r.fired[obs.EvRecover] + r.fired[obs.EvElect]
			switch {
			case row.takeover == some && strings.Contains(c.name, "Failover") && takeovers == 0:
				t.Errorf("%q, %v: no takeover in %d walks; Failover never fired", row.plan, c, row.seeds)
			case row.takeover == none && takeovers > 0:
				t.Errorf("%q, %v: %d takeovers with the library's group intact", row.plan, c, takeovers)
			}
			t.Logf("%q, %v: %d of %d seeds violate (pin %d); recover=%d elect=%d",
				row.plan, c, r.violating, row.seeds, row.max[c.String()],
				r.fired[obs.EvRecover], r.fired[obs.EvElect])
			if r.violating > row.max[c.String()] {
				t.Errorf("%q, %v: %d of %d seeds violate, pinned at %d; first %v",
					row.plan, c, r.violating, row.seeds, row.max[c.String()], r.first.Violations[0])
			}
		}
	}
}

// TestPinnedReprosReplay replays the shrunk counterexamples committed
// under testdata: a library crash; a holder crash (the lease gap of
// ROADMAP item 6); a library crash after which the clock site's
// self-upgrade found its own copy invalid and the engine panicked; and
// a library crash under AutoDelta in which a request's give-up from the
// dead epoch failed the request the site had since made of its
// successor, shedding a copy the record then lost track of (it shrinks
// to the self-upgrade panic); and one more under AutoDelta, in which the
// elected record kept a reader entry for a copy released to the lost
// library, and of the two releases the elected library's own fault then
// sent itself, the second arrived after its re-request was granted and
// dropped the new copy from the record. Each replays byte for byte the
// same twice, and its violation count is a pin: a change may lower it,
// never raise it.
func TestPinnedReprosReplay(t *testing.T) {
	for _, pin := range []struct {
		file string
		max  int
	}{
		{"lattice-library-crash.json", 0},
		{"lattice-holder-crash.json", 1},
		{"panic-self-upgrade.json", 0},
		{"autodelta-library-crash.json", 0},
		{"autodelta-ghost-reader.json", 0},
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
