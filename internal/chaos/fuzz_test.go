package chaos

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseFaultPlan checks the plan grammar's round-trip contract:
// any string Parse accepts serializes back (Plan.String) to a string
// that reparses to an identical plan — String ∘ Parse is a
// normalization fixpoint. Experiment logs print executed plans for
// replay, so this property is what makes a logged plan reproduce the
// run. It also checks that a crash clause is read as the partition of
// its one site, and a reorder rule as a delay rule.
func FuzzParseFaultPlan(f *testing.F) {
	for _, seed := range []string{
		"",
		"seed=42",
		"seed=7; drop p=0.05; dup p=0.1; delay p=0.2 max=2ms",
		"drop p=0.05 kind=page-send",
		"delay p=0.3 min=1ms max=20ms",
		"dup p=0.02 from=1 to=2 copies=3",
		"reorder p=0.1 max=5ms",
		"partition sites=1,2 from=2s until=3s",
		"crash site=1 from=4s until=4500ms",
		"crash site=0 from=100ms",
		"seed=3; reorder p=0.5 min=1ms max=2ms; crash site=2 from=1s; partition sites=0,1 from=2s",
		"seed=-1; drop p=1",
		"drop q=banana",
		"delay p=0.5 max=1ms min=2ms",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		plan, err := Parse(s)
		if err != nil {
			return // rejected inputs just need a clean error
		}
		alt, err := Parse(respell(s))
		if err != nil || !reflect.DeepEqual(plan, alt) {
			t.Fatalf("%q and its respelling %q parse apart: %+v vs %+v (%v)", s, respell(s), plan, alt, err)
		}
		out := plan.String()
		plan2, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse rejected its own String output %q: %v", out, err)
		}
		out2 := plan2.String()
		if out2 != out {
			t.Fatalf("plan grammar not a fixpoint:\n  in:  %q\n  out: %q\n  re:  %q", s, out, out2)
		}
	})
}

// respell writes each crash clause in s as the partition of its site,
// and each reorder rule as a delay rule.
func respell(s string) string {
	clauses := strings.Split(s, ";")
	for i, c := range clauses {
		f := strings.Fields(c)
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "reorder":
			f[0] = "delay"
		case "crash":
			f[0] = "partition"
			for j, kv := range f {
				if v, ok := strings.CutPrefix(kv, "site="); ok {
					f[j] = "sites=" + v
				}
			}
		}
		clauses[i] = strings.Join(f, " ")
	}
	return strings.Join(clauses, ";")
}
