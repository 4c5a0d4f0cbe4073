// Package chaos is a deterministic, seeded fault-plan engine for the
// Mirage transports. A Plan describes faults to inject — per
// (from, to, msg-kind) rules dropping, delaying or duplicating
// messages, and partition windows that cut a set of sites off. A
// crashed site is a partition of that one site: it keeps running, and
// every other site sees of it what it would see of a dead one. An
// Injector executes a plan reproducibly: every probabilistic decision
// comes from one seeded generator consumed in message order, so in the
// discrete-event simulator the same seed replays the identical fault
// schedule, and a failing run can be reproduced from its serialized
// plan alone.
//
// The paper's substrate never needed this: Locus virtual circuits made
// delivery "reliable by construction" and §10.0 defers site failures
// outright. chaos is the adversary the reliability layer in
// internal/core (see DESIGN.md §7) is hardened against.
package chaos

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"mirage/internal/wire"
)

// Op is what a matching rule does to a message.
type Op uint8

const (
	// OpDrop loses the message.
	OpDrop Op = iota
	// OpDup delivers Copies extra copies of the message.
	OpDup
	// OpDelay holds the message for a uniform duration in
	// [MinDelay, MaxDelay] before it proceeds. A held message is
	// overtaken by later traffic, breaking the per-circuit FIFO that
	// Locus guaranteed, so Parse reads "reorder" as "delay".
	OpDelay
)

var opNames = map[Op]string{OpDrop: "drop", OpDup: "dup", OpDelay: "delay"}

func (o Op) String() string { return opNames[o] }

// Any matches every site in a rule's From/To fields.
const Any = -1

// Rule matches messages by (from, to, kind) and applies Op with
// probability P to each match.
type Rule struct {
	Op       Op
	P        float64       // per-message probability, in [0,1]
	From, To int           // site filters; Any matches all
	Kind     wire.Kind     // KInvalid matches all kinds
	MinDelay time.Duration // delay lower bound
	MaxDelay time.Duration // delay upper bound
	Copies   int           // dup: extra copies; default 1
}

func (r Rule) matches(from, to int, kind wire.Kind) bool {
	return (r.From == Any || r.From == from) && (r.To == Any || r.To == to) &&
		(r.Kind == wire.KInvalid || r.Kind == kind)
}

// String renders the rule in the plan grammar.
func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s p=%s", r.Op, trimFloat(r.P))
	if r.From != Any {
		fmt.Fprintf(&b, " from=%d", r.From)
	}
	if r.To != Any {
		fmt.Fprintf(&b, " to=%d", r.To)
	}
	if r.Kind != wire.KInvalid {
		fmt.Fprintf(&b, " kind=%s", r.Kind)
	}
	if r.Op == OpDelay {
		if r.MinDelay != 0 {
			fmt.Fprintf(&b, " min=%s", r.MinDelay)
		}
		fmt.Fprintf(&b, " max=%s", r.MaxDelay)
	}
	if r.Op == OpDup && r.Copies > 1 {
		fmt.Fprintf(&b, " copies=%d", r.Copies)
	}
	return b.String()
}

// Partition isolates a set of sites from the rest of the cluster for a
// window: messages crossing the cut, in either direction, are dropped.
// A partition of one site is also how a crash is written and modelled:
// a fail-stop followed, at Until, by a restart with memory intact (a
// long pause). Recovery-with-state-loss is beyond this subsystem.
type Partition struct {
	Sites []int // the isolated side of the cut
	From  time.Duration
	Until time.Duration // 0 means forever
}

func (p Partition) covers(now time.Duration) bool {
	return now >= p.From && (p.Until == 0 || now < p.Until)
}

func (p Partition) cut(from, to int) bool {
	return containsInt(p.Sites, from) != containsInt(p.Sites, to)
}

// String renders the partition in the plan grammar.
func (p Partition) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "partition sites=%s from=%s", joinInts(p.Sites), p.From)
	if p.Until != 0 {
		fmt.Fprintf(&b, " until=%s", p.Until)
	}
	return b.String()
}

// Plan is a complete, serializable fault schedule description.
type Plan struct {
	Seed       int64
	Rules      []Rule
	Partitions []Partition
}

// String serializes the plan in the grammar Parse accepts; the round
// trip is exact, so a logged plan string reproduces the run.
func (p *Plan) String() string {
	parts := []string{fmt.Sprintf("seed=%d", p.Seed)}
	for _, r := range p.Rules {
		parts = append(parts, r.String())
	}
	for _, pt := range p.Partitions {
		parts = append(parts, pt.String())
	}
	return strings.Join(parts, "; ")
}

// CheckSites refuses a plan that names a site an n-site cluster does
// not have: a partition's site, or a rule's From or To other than Any.
// Such a window or filter would match no message, so the run it was
// written for would silently go without its fault. A nil plan names
// no site.
func (p *Plan) CheckSites(n int) error {
	if p == nil {
		return nil
	}
	var named []int
	for _, r := range p.Rules {
		named = append(named, r.From, r.To)
	}
	named = slices.DeleteFunc(named, func(s int) bool { return s == Any })
	for _, pt := range p.Partitions {
		named = append(named, pt.Sites...)
	}
	if i := slices.IndexFunc(named, func(s int) bool { return s < 0 || s >= n }); i >= 0 {
		return fmt.Errorf("chaos: plan names site %d; the cluster has sites 0..%d", named[i], n-1)
	}
	return nil
}

// Parse reads a plan from the grammar String emits: clauses separated
// by ';', each a directive followed by key=value fields.
//
//	seed=42; drop p=0.05 kind=page-send; delay p=0.3 max=20ms;
//	dup p=0.02 from=1 to=2; reorder p=0.1 max=5ms;
//	partition sites=1,2 from=2s until=3s; crash site=1 from=4s until=4500ms
//
// "reorder" is read as "delay", and "crash site=S" as "partition
// sites=S" of that one site, so String spells them that way.
func Parse(s string) (*Plan, error) {
	p := &Plan{}
	for _, clause := range strings.Split(s, ";") {
		fields := strings.Fields(clause)
		if len(fields) == 0 {
			continue
		}
		directive, kvs := fields[0], fields[1:]
		if strings.HasPrefix(directive, "seed=") {
			v, err := strconv.ParseInt(directive[len("seed="):], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad seed in %q: %v", clause, err)
			}
			p.Seed = v
			continue
		}
		kv, err := parseKVs(kvs)
		if err != nil {
			return nil, fmt.Errorf("chaos: clause %q: %v", strings.TrimSpace(clause), err)
		}
		switch directive {
		case "drop", "dup", "delay", "reorder":
			r := Rule{From: Any, To: Any}
			switch directive {
			case "dup":
				r.Op = OpDup
			case "delay", "reorder":
				r.Op = OpDelay
			}
			for k, v := range kv {
				switch k {
				case "p":
					r.P, err = strconv.ParseFloat(v, 64)
					if r.P < 0 || r.P > 1 {
						err = strconv.ErrRange
					}
				case "from":
					r.From, err = strconv.Atoi(v)
				case "to":
					r.To, err = strconv.Atoi(v)
				case "kind":
					var ok bool
					if r.Kind, ok = wire.ParseKind(v); !ok {
						err = strconv.ErrRange
					}
				case "min":
					r.MinDelay, err = time.ParseDuration(v)
				case "max":
					r.MaxDelay, err = time.ParseDuration(v)
				case "copies":
					r.Copies, err = strconv.Atoi(v)
					if r.Copies < 1 {
						err = strconv.ErrRange
					}
				default:
					return nil, fmt.Errorf("chaos: unknown field %q for %s", k, directive)
				}
				if err != nil {
					return nil, fmt.Errorf("chaos: bad %s=%q", k, v)
				}
			}
			if r.Op == OpDelay && r.MaxDelay < r.MinDelay {
				return nil, fmt.Errorf("chaos: delay max %v < min %v", r.MaxDelay, r.MinDelay)
			}
			if r.Op == OpDup && r.Copies == 0 {
				r.Copies = 1
			}
			p.Rules = append(p.Rules, r)
		case "partition", "crash":
			pt, sitesKey := Partition{}, "sites"
			if directive == "crash" {
				sitesKey = "site"
			}
			for k, v := range kv {
				switch k {
				case sitesKey:
					pt.Sites, err = splitInts(v)
					if directive == "crash" && len(pt.Sites) != 1 {
						err = strconv.ErrRange
					}
				case "from":
					pt.From, err = time.ParseDuration(v)
				case "until":
					pt.Until, err = time.ParseDuration(v)
				default:
					return nil, fmt.Errorf("chaos: unknown field %q for %s", k, directive)
				}
				if err != nil {
					return nil, fmt.Errorf("chaos: bad %s=%q", k, v)
				}
			}
			if len(pt.Sites) == 0 {
				return nil, fmt.Errorf("chaos: %s with no %s=", directive, sitesKey)
			}
			p.Partitions = append(p.Partitions, pt)
		default:
			return nil, fmt.Errorf("chaos: unknown directive %q", directive)
		}
	}
	return p, nil
}

func parseKVs(fields []string) (map[string]string, error) {
	kv := make(map[string]string, len(fields))
	for _, f := range fields {
		eq := strings.IndexByte(f, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("expected key=value, got %q", f)
		}
		kv[f[:eq]] = f[eq+1:]
	}
	return kv, nil
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	sort.Ints(out)
	return out, nil
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
