package check

import (
	"fmt"
	"math/rand"
	"time"

	"mirage/internal/chaos"
	"mirage/internal/core"
	"mirage/internal/mem"
	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/sim"
	"mirage/internal/wire"
)

// Op is one shared-memory access in an explored scenario: a 1-byte
// read or write at offset 0 of a page. Ops are issued concurrently
// across sites and sequentially within a site, like processes on
// distinct Mirage machines.
type Op struct {
	Site  int   `json:"site"`
	Page  int32 `json:"page"`
	Write bool  `json:"write"`
	Val   byte  `json:"val,omitempty"`
}

func (o Op) String() string {
	if o.Write {
		return fmt.Sprintf("s%d:w(p%d)=%d", o.Site, o.Page, o.Val)
	}
	return fmt.Sprintf("s%d:r(p%d)", o.Site, o.Page)
}

// Scenario is a self-contained explorable configuration: cluster shape,
// protocol stack, the op workload, and an optional chaos plan. It
// serializes to JSON inside a Repro, so everything that influences the
// run must live here.
type Scenario struct {
	Sites int           `json:"sites"`
	Pages int           `json:"pages"`
	Delta time.Duration `json:"delta"`
	// Hop is the per-hop message delay; 0 means 1ms. Distinct from 0 so
	// protocol steps have duration and Δ windows mean something.
	Hop time.Duration `json:"hop,omitempty"`
	Ops []Op          `json:"ops"`
	// Chaos, when non-empty, is an internal/chaos plan in its grammar;
	// it brings the reliability layer (chaos without it livelocks by
	// design).
	Chaos string `json:"chaos,omitempty"`
	// Options is the protocol stack: the invalidation policy and the
	// layers, resolved by ForCluster as every cluster's are. The harness
	// owns Sites, Obs and Costs, and times any Reliability or Failover
	// layer the resolved stack has to the hop.
	Options core.Options `json:"options"`
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Pages <= 0 {
		sc.Pages = 1
	}
	if sc.Hop == 0 {
		sc.Hop = time.Millisecond
	}
	return sc
}

// scheduler records and replays same-instant scheduling choices. A
// prescribed prefix (choices) is consumed first; past it, picks come
// from rng when set and otherwise default to 0 (kernel FIFO order).
// branch/taken record the branching factor and pick at every choice
// point, which is what the odometer in Exhaustive and the Repro
// serialization consume.
type scheduler struct {
	choices []int
	rng     *rand.Rand
	branch  []int
	taken   []int
}

func (s *scheduler) choose(n int) int {
	i := len(s.taken)
	pick := 0
	switch {
	case i < len(s.choices):
		pick = s.choices[i]
		if pick < 0 || pick >= n {
			pick = 0
		}
	case s.rng != nil:
		pick = s.rng.Intn(n)
	}
	s.branch = append(s.branch, n)
	s.taken = append(s.taken, pick)
	return pick
}

// runResult is everything one explored execution produced.
type runResult struct {
	violations []Violation
	trace      []obs.Event
	steps      int
	opsDone    int
	opsFailed  int // degraded ops (chaos runs only)
}

// defaultMaxSteps bounds one explored run; a run that exhausts it is
// reported as a liveness violation rather than hanging the explorer.
const defaultMaxSteps = 2_000_000

// harness wires core engines over the sim kernel with chooser-driven
// scheduling, mirroring the ipc cluster's environment in miniature. It
// is the one simulated cluster in this package: the explorer runs every
// schedule on one, and the hand-driven tests drive one an op at a time.
type harness struct {
	sc      Scenario     // with defaults
	opt     core.Options // the resolved stack every engine runs
	k       *sim.Kernel
	engines []*core.Engine
	order   *EventOrder
	inj     *chaos.Injector
	done    int
	failed  int
}

type hEnv struct {
	h    *harness
	site int
}

func (e hEnv) Site() int          { return e.site }
func (e hEnv) Now() time.Duration { return e.h.k.Now().Duration() }
func (e hEnv) After(d time.Duration, fn func()) func() {
	t := e.h.k.After(d, fn)
	return func() { t.Cancel() }
}
func (e hEnv) Exec(cost time.Duration, fn func()) { e.h.k.After(cost, fn) }

func (e hEnv) Send(to int, m core.NetMsg) {
	h := e.h
	d := h.sc.Hop
	if to == e.site {
		// Loopback: immediate and exempt from chaos, like ipc's.
		d = 0
	} else if h.inj != nil {
		kind := wire.KInvalid
		if wm, ok := m.(*wire.Msg); ok {
			kind = wm.Kind
		}
		a := h.inj.Apply(h.k.Now().Duration(), e.site, to, kind)
		if a.Drop {
			return
		}
		d += a.Delay
		for i := 0; i < a.Dup; i++ {
			h.k.After(d, func() { h.engines[to].Deliver(m) })
		}
	}
	h.k.After(d, func() { h.engines[to].Deliver(m) })
}

const (
	scenarioSeg      = 1
	scenarioPageSize = 64
)

// newHarness builds the scenario's cluster on a fresh kernel whose
// same-instant ties sch decides: the resolved stack on every site, the
// scenario's segment created at site 0 and attached everywhere else. An
// error is a scenario that cannot run.
func newHarness(sc Scenario, sch *scheduler) (*harness, error) {
	sc = sc.withDefaults()
	h := &harness{sc: sc, k: sim.NewKernel()}
	h.k.SetChooser(sch.choose)
	h.order = NewEventOrder(obs.NewBufferCap(1<<22), func(site int, seg int32) *mmu.Seg {
		return h.engines[site].Seg(seg)
	})
	opt, err := sc.Options.ForCluster(sc.Sites, sc.Delta, sc.Chaos != "")
	if err != nil {
		return nil, err
	}
	opt.Costs, opt.Obs = &core.Costs{}, &obs.Obs{Tracer: h.order}
	// The layers the stack has, timed to the hop so a give-up or a
	// recovery happens in bounded virtual time.
	if opt.Reliability != nil {
		opt.Reliability = &core.Reliability{
			AckTimeout:     20 * sc.Hop,
			MaxBackoff:     200 * sc.Hop,
			MaxAttempts:    5,
			RequestTimeout: 4000 * sc.Hop,
		}
	}
	if opt.Failover != nil {
		opt.Failover = &core.Failover{RecoverTimeout: 100 * sc.Hop}
	}
	h.opt = opt
	if sc.Chaos != "" {
		plan, err := chaos.Parse(sc.Chaos)
		if err != nil {
			return nil, fmt.Errorf("bad chaos plan: %v", err)
		}
		h.inj = chaos.New(*plan)
	}
	for i := 0; i < sc.Sites; i++ {
		h.engines = append(h.engines, core.New(hEnv{h, i}, opt))
	}
	meta := &mem.Segment{
		ID: scenarioSeg, Key: 42, Size: sc.Pages * scenarioPageSize,
		PageSize: scenarioPageSize, Pages: sc.Pages, Library: 0,
		Delta: sc.Delta, Mode: 0o666,
	}
	h.engines[0].CreateSegment(meta)
	for i := 1; i < sc.Sites; i++ {
		h.engines[i].AttachSegment(meta)
	}
	return h, nil
}

// runScenario executes one schedule of the scenario and checks it: the
// run goes through VerifyRun, as every simulated cluster's does, and the
// quiesced cluster through the liveness and record-agreement checks. A
// panic raised while the kernel steps ends the run with one panic
// violation. maxSteps 0 means defaultMaxSteps.
func runScenario(sc Scenario, sch *scheduler, maxSteps int) runResult {
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps
	}
	h, err := newHarness(sc, sch)
	if err != nil {
		return schemaFailure(err.Error())
	}

	// Queue ops per site; each site runs its ops sequentially through a
	// fault loop, all sites starting concurrently at t=0.
	bySite := make([][]Op, h.sc.Sites)
	for _, op := range sc.Ops {
		if op.Site < 0 || op.Site >= h.sc.Sites || op.Page < 0 || int(op.Page) >= h.sc.Pages {
			return schemaFailure(fmt.Sprintf("op %v outside scenario bounds", op))
		}
		bySite[op.Site] = append(bySite[op.Site], op)
	}
	for site := range bySite {
		if len(bySite[site]) > 0 {
			h.startSite(site, bySite[site])
		}
	}

	steps, p := h.run(maxSteps)
	res := runResult{steps: steps, opsDone: h.done, opsFailed: h.failed, trace: h.order.Buffer().Events()}
	if p != nil {
		res.violations = []Violation{{Invariant: InvPanic, Index: -1, Detail: fmt.Sprint(p)}}
		return res
	}
	res.violations = h.check()
	if res.steps >= maxSteps {
		res.violations = append(res.violations, Violation{
			Invariant: InvLiveness, Index: -1,
			Detail: fmt.Sprintf("run exceeded %d kernel steps", maxSteps),
		})
	} else if h.done+h.failed < len(sc.Ops) {
		res.violations = append(res.violations, Violation{
			Invariant: InvLiveness, Index: -1,
			Detail: fmt.Sprintf("%d of %d ops starved at drain",
				len(sc.Ops)-h.done-h.failed, len(sc.Ops)),
		})
	}
	return res
}

// run steps the kernel until it drains or has taken maxSteps steps, and
// returns the steps taken and what a step panicked with, nil if none did.
func (h *harness) run(maxSteps int) (steps int, panicked any) {
	defer func() { panicked = recover() }()
	for steps < maxSteps && h.k.Step() {
		steps++
	}
	return steps, nil
}

// check is every check of the finished run: VerifyRun with the
// configuration the resolved stack implies, then the final checks.
func (h *harness) check() []Violation {
	out := VerifyRun(ConfigFor(h.opt, h.sc.Delta), h.order, h.engines, []int32{scenarioSeg})
	return append(out, h.finalChecks()...)
}

// schemaFailure is the result of a scenario that cannot run.
func schemaFailure(detail string) runResult {
	return runResult{violations: []Violation{{Invariant: InvSchema, Index: -1, Detail: detail}}}
}

// startSite chains ops[0..] at a site: each is attempted until it is
// done or degraded, then the next is posted.
func (h *harness) startSite(site int, ops []Op) {
	var step func()
	step = func() {
		if len(ops) == 0 {
			return
		}
		done, err := tryOp(h.engines[site], ops[0], step)
		if !done {
			return // step is the wake the engine holds
		}
		if err != nil {
			h.failed++
		} else {
			h.done++
		}
		ops = ops[1:]
		h.k.After(0, step)
	}
	h.k.After(0, step)
}

// tryOp is one attempt at op on its site's engine, the access loop
// (mem.Accessor) for a caller that is a kernel event rather than a
// task: it holds the page, moves the byte, records the op and gives
// the page back — or, when the check refuses, reports the fault and
// returns not done; the engine calls retry once the page's state at the
// site has changed. A degraded grant ends the op with its error.
func tryOp(e *core.Engine, op Op, retry func()) (done bool, err error) {
	if err := e.FaultError(scenarioSeg, op.Page); err != nil {
		return true, err
	}
	m := e.Seg(scenarioSeg)
	f, ok := m.Hold(int(op.Page), op.Write)
	if !ok {
		e.Fault(scenarioSeg, op.Page, op.Write, 100+int32(op.Site), retry)
		return false, nil
	}
	if op.Write {
		f[0] = op.Val
	}
	e.RecordOp(scenarioSeg, op.Page, 0, op.Write, f[:1])
	m.Unhold(int(op.Page), op.Write)
	return true, nil
}

// finalChecks looks at the cluster after the run, beyond what VerifyRun
// covers. Without a fault injector the drained cluster must be quiescent,
// with the record of the site that holds the library now matching actual
// placement — the explorer's port of the core quick-test oracle; under
// chaos the record may legitimately be degraded (shed entries, denied
// grants), and the trace checker already covered safety.
func (h *harness) finalChecks() []Violation {
	if h.inj != nil {
		return nil
	}
	var out []Violation
	bad := func(page int32, format string, args ...any) {
		out = append(out, Violation{
			Invariant: InvRecord, Index: -1,
			Detail: fmt.Sprintf("page %d: ", page) + fmt.Sprintf(format, args...),
		})
	}
	lib := h.engines[librarySite(h.order.Buffer().Events(), scenarioSeg)]
	for p := 0; p < h.sc.Pages; p++ {
		page := int32(p)
		st := lib.LibraryState(scenarioSeg, page)
		if st.Busy || st.Queued > 0 {
			bad(page, "library not quiescent at drain (busy=%v queued=%d)",
				st.Busy, st.Queued)
			continue
		}
		for s, e := range h.engines {
			prot := e.Seg(scenarioSeg).Prot(p)
			switch {
			case st.Writer == s:
				if prot != mmu.ReadWrite {
					bad(page, "library records site %d as writer, copy is %v", s, prot)
				}
			case st.Readers.Has(s):
				if prot != mmu.ReadOnly {
					bad(page, "library records site %d as reader, copy is %v", s, prot)
				}
			default:
				if prot != mmu.Invalid {
					bad(page, "site %d holds a %v copy the library does not record", s, prot)
				}
			}
		}
	}
	return out
}

// librarySite is where a trace leaves the library of a segment created
// at site 0: the site of its last rehoming event — a takeover, an
// election or a migration, each traced at the successor — or site 0 if
// it never moved.
func librarySite(events []obs.Event, seg int32) int {
	for i := len(events) - 1; i >= 0; i-- {
		switch ev := events[i]; ev.Type {
		case obs.EvRecover, obs.EvElect, obs.EvMigrate:
			if ev.Seg == seg {
				return int(ev.Site)
			}
		}
	}
	return 0
}

// ConfigFor is the history checker's configuration for the trace of a
// cluster whose engines run the resolved stack o (core.Options.ForCluster)
// with the segments' default Δ delta: the site count; the window bound,
// which is AutoDelta.Min when the controller is on — the one sound
// static bound on every grant it clamps — and delta otherwise; and
// whether the reliability layer lets a grant cycle abort. Every cluster's
// checker configuration is this one.
func ConfigFor(o core.Options, delta time.Duration) Config {
	if o.AutoDelta != nil {
		delta = o.AutoDelta.Min
	}
	return Config{Sites: o.Sites, Delta: delta, Reliable: o.Reliability != nil}
}

// VerifyRun checks a finished simulated run, the one check the explorer
// and ipc.Cluster.VerifyTrace both make: the history checker over the
// trace order recorded, the page-event-order findings order made while
// it recorded, and the end-of-run invariants on every engine for every
// segment (idle). A nil engine — a site running another DSM — is
// skipped.
func VerifyRun(cfg Config, order *EventOrder, engines []*core.Engine, segs []int32) []Violation {
	out := append(Verify(cfg, order.Buffer().Events()), order.Violations()...)
	return append(out, idle(engines, segs)...)
}

// idle checks page-word-idle and site-page-idle: with the run drained, no
// page is left held at any site, or in flight in any site's engine,
// whatever happened.
func idle(engines []*core.Engine, segs []int32) []Violation {
	var out []Violation
	for _, seg := range segs {
		for s, e := range engines {
			if e == nil {
				continue
			}
			if m := e.Seg(seg); m != nil {
				out = append(out, HeldPages(s, seg, m)...)
			}
			out = append(out, BusyPages(s, seg, e)...)
		}
	}
	return out
}

// EventOrder is a Tracer that checks the page-event-order invariant as
// a simulated run emits, and records every event in a buffer. The live
// checker's soundness rests on where a site traces a page's new state
// against the flip of its page word (DESIGN.md §17): a raising
// transition before the word lets the new access in, a lowering one
// after the holders of the old access have left. So at every
// EvPageState a site emits, its word must grant exactly the lesser of
// the state the site traced before and the one it traces now (invalid <
// read < write; a closed segment grants nothing). The trace alone cannot
// show that — moving an event across its flip leaves it byte for byte
// the same — so the check reads the word, which only a simulated run,
// whose engines are still while their tracer runs, lets it do.
type EventOrder struct {
	buf   *obs.Buffer
	seg   func(site int, seg int32) *mmu.Seg // nil when not attached
	n     int
	state map[traceKey]int64
	viols []Violation
}

type traceKey struct{ site, seg, page int32 }

// NewEventOrder records into buf and finds a site's page table with seg.
func NewEventOrder(buf *obs.Buffer, seg func(site int, seg int32) *mmu.Seg) *EventOrder {
	return &EventOrder{buf: buf, seg: seg, state: make(map[traceKey]int64)}
}

// Emit checks ev and records it.
func (c *EventOrder) Emit(ev obs.Event) {
	if ev.Type == obs.EvPageState {
		k := traceKey{ev.Site, ev.Seg, ev.Page}
		before := c.state[k]
		want := min(before, ev.Arg)
		c.state[k] = ev.Arg
		if m := c.seg(int(ev.Site), ev.Seg); m != nil && len(c.viols) < 100 {
			p := int(ev.Page)
			var got int64
			switch {
			case m.Check(p, true) == mmu.NoFault:
				got = 2
			case m.Check(p, false) == mmu.NoFault:
				got = 1
			}
			if got != want {
				c.viols = append(c.viols, Violation{Invariant: InvEventOrder, Index: c.n, Event: ev,
					Detail: fmt.Sprintf("state %d traced after %d: the page word grants %d, not %d",
						ev.Arg, before, got, want)})
			}
		}
	}
	c.n++
	c.buf.Emit(ev)
}

// Buffer is where the events are recorded (obs.Obs.Buffer finds it).
func (c *EventOrder) Buffer() *obs.Buffer { return c.buf }

// Violations returns what the check found, nil if the order held.
func (c *EventOrder) Violations() []Violation { return c.viols }

// HeldPages checks the idle-word invariant on one site's page table for
// a segment: with no access under way, every page's word shows no
// reader, no exclusive holder and no waiter. A hold leaked on some error
// path stops a live site at the page's next transition; nothing else
// shows it.
func HeldPages(site int, seg int32, m *mmu.Seg) []Violation {
	var out []Violation
	for p := 0; p < m.Pages(); p++ {
		if !m.Idle(p) {
			out = append(out, Violation{
				Invariant: InvIdleWord, Index: -1,
				Detail: fmt.Sprintf("site %d seg %d page %d: page word not idle after the run (a hold was not given back)", site, seg, p),
			})
		}
	}
	return out
}

// BusyPages checks the idle-record invariant on one site's engine for a
// segment: with the run drained, the engine tracks nothing for any page
// — no blocked fault, no request outstanding or deadline armed, no
// collection or relay for another site's write grant. A flag left
// behind by some path is invisible until the page's next fault finds a
// request "outstanding" that nobody will answer.
func BusyPages(site int, seg int32, e *core.Engine) []Violation {
	m := e.Seg(seg)
	if m == nil {
		return nil // not attached here
	}
	var out []Violation
	for p := 0; p < m.Pages(); p++ {
		if st := e.SitePage(seg, int32(p)); st != (core.SitePageState{}) {
			out = append(out, Violation{
				Invariant: InvIdlePage, Index: -1,
				Detail: fmt.Sprintf("site %d seg %d page %d: engine record not idle after the run: %+v", site, seg, p, st),
			})
		}
	}
	return out
}
