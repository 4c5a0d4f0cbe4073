package check

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"mirage/internal/obs"
)

// Repro is a serialized counterexample: a scenario plus the schedule
// prefix that drives it to a violation. Everything is explicit — ops,
// chaos plan with seed, choices — so Replay is deterministic down to
// the trace bytes on any machine.
type Repro struct {
	Scenario Scenario `json:"scenario"`
	// Choices prescribes the pick at each same-instant choice point;
	// past the prefix the kernel's FIFO order (pick 0) applies.
	Choices []int `json:"choices"`
	// Violations is what the recorded replay reported, for human
	// consumption; Replay recomputes it.
	Violations []Violation `json:"violations,omitempty"`
}

// ReplayResult is one deterministic re-execution of a Repro.
type ReplayResult struct {
	Violations []Violation
	// TraceSHA fingerprints the full event trace; identical across
	// replays of the same Repro.
	TraceSHA string
	Events   int
	Steps    int
}

// Replay re-executes the repro's schedule and re-checks it.
func (r Repro) Replay() ReplayResult {
	sch := &scheduler{choices: r.Choices}
	res := runScenario(r.Scenario, sch, 0)
	return ReplayResult{
		Violations: res.violations,
		TraceSHA:   traceSHA(res.trace),
		Events:     len(res.trace),
		Steps:      res.steps,
	}
}

// traceSHA hashes the binary image of every event field, giving a
// formatting-independent fingerprint of a run.
func traceSHA(events []obs.Event) string {
	h := sha256.New()
	var buf [48]byte
	for _, ev := range events {
		binary.LittleEndian.PutUint64(buf[0:], uint64(ev.T))
		binary.LittleEndian.PutUint32(buf[8:], uint32(ev.Site))
		binary.LittleEndian.PutUint32(buf[12:], uint32(ev.Type))
		binary.LittleEndian.PutUint32(buf[16:], uint32(ev.Kind))
		binary.LittleEndian.PutUint32(buf[20:], uint32(ev.Seg))
		binary.LittleEndian.PutUint32(buf[24:], uint32(ev.Page))
		binary.LittleEndian.PutUint32(buf[28:], uint32(ev.From))
		binary.LittleEndian.PutUint32(buf[32:], uint32(ev.To))
		binary.LittleEndian.PutUint32(buf[36:], ev.Cycle)
		binary.LittleEndian.PutUint64(buf[40:], uint64(ev.Arg))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Encode writes the repro as indented JSON (the CI artifact format).
func (r Repro) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// DecodeRepro reads a repro written by Encode. A key the format does not
// have is an error: a repro in an older format would otherwise decode
// into a different stack and replay a different run.
func DecodeRepro(rd io.Reader) (Repro, error) {
	var r Repro
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return Repro{}, fmt.Errorf("check: decode repro: %w", err)
	}
	if r.Scenario.Sites <= 0 {
		return Repro{}, fmt.Errorf("check: repro scenario has no sites")
	}
	return r, nil
}

// Shrink minimizes a violating repro: first it tries dropping ops (each
// removal re-validated by replaying, then by a handful of fresh random
// schedules), then it truncates the choice prefix to the shortest that
// still violates and zeroes the remaining picks. The result's
// Violations are from its final replay. Budget: opt.ShrinkBudget
// replays (default 400).
func Shrink(r Repro, opt ExploreOpts) Repro {
	budget := opt.ShrinkBudget
	if budget <= 0 {
		budget = 400
	}
	// A candidate "still violates" if replaying its choices does, or —
	// for op removals, where old choices may no longer line up — if a
	// short deterministic search finds a new violating schedule.
	try := func(sc Scenario, choices []int, search bool) ([]int, []Violation, bool) {
		if budget <= 0 {
			return nil, nil, false
		}
		budget--
		sch := &scheduler{choices: choices}
		if res := runScenario(sc, sch, opt.MaxSteps); len(res.violations) > 0 {
			return append([]int(nil), sch.taken...), res.violations, true
		}
		if !search {
			return nil, nil, false
		}
		for s := int64(1); s <= 4 && budget > 0; s++ {
			budget--
			sch := &scheduler{rng: newRng(s)}
			if res := runScenario(sc, sch, opt.MaxSteps); len(res.violations) > 0 {
				return append([]int(nil), sch.taken...), res.violations, true
			}
		}
		return nil, nil, false
	}

	// Phase 1: op removal to fixpoint.
	for again := true; again && budget > 0; {
		again = false
		for i := 0; i < len(r.Scenario.Ops) && budget > 0; i++ {
			sc := r.Scenario
			sc.Ops = append(append([]Op(nil), sc.Ops[:i]...), sc.Ops[i+1:]...)
			if ch, v, ok := try(sc, r.Choices, true); ok {
				r.Scenario, r.Choices, r.Violations = sc, ch, v
				again = true
				break
			}
		}
	}

	// Phase 2a: shortest violating choice prefix (binary search).
	lo, hi := 0, len(r.Choices)
	for lo < hi && budget > 0 {
		mid := (lo + hi) / 2
		if ch, v, ok := try(r.Scenario, r.Choices[:mid], false); ok {
			r.Choices, r.Violations = ch[:min(len(ch), mid)], v
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// Phase 2b: zero individual picks.
	for i := 0; i < len(r.Choices) && budget > 0; i++ {
		if r.Choices[i] == 0 {
			continue
		}
		cand := append([]int(nil), r.Choices...)
		cand[i] = 0
		if _, v, ok := try(r.Scenario, cand, false); ok {
			r.Choices, r.Violations = cand, v
		}
	}
	// Trailing zeros equal the beyond-prefix default; drop them.
	for len(r.Choices) > 0 && r.Choices[len(r.Choices)-1] == 0 {
		r.Choices = r.Choices[:len(r.Choices)-1]
	}
	if rr, v, ok := try(r.Scenario, r.Choices, false); ok {
		_ = rr
		r.Violations = v
	}
	return r
}
