package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"mirage"
	"mirage/internal/obs"
	"mirage/internal/wire"
)

// phases is where the time of one faulting op went, in nanoseconds,
// rebuilt from the protocol events emitted while it was the only op
// in flight.
type phases struct {
	span     float64 // the public call, start to return
	request  float64 // call start → first message leaves the faulting site
	hops     float64 // total send→recv time of the messages on the critical chain
	nHops    int     // how many messages that chain has, of which:
	nLoop    int     // sent by a site to itself (requester and library colocated)
	nPage    int     // carrying the page
	library  float64 // grant-start → grant-end of the op's grant cycle (may outlast the call)
	resume   float64 // last page-state change at the faulting site → call returns
	residual float64 // span − request − hops − resume: engine handlers on the chain
}

// traceAnalysis is the per-kind and pooled phase medians of a traced
// single-driver run.
type traceAnalysis struct {
	byKind   [nKinds]phases
	all      phases
	hopNs    float64 // median single hop
	slackNs  float64 // width of the interval the two clocks' offset is known to lie in
	children []childSpan
	offsetNs int64 // cluster clock + offset = benchmark clock
}

// childSpan is a protocol interval inside an op span, for the JSONL.
type childSpan struct {
	parent     int
	name       string
	layer      string
	start, end int64 // benchmark clock
}

// analyse attributes events to the op spans of a single-driver traced
// run and measures each op's phases.
//
// With one op in flight and every op faulting exactly once, the k-th
// fault event belongs to the k-th span. The event clock (time since
// cluster start) and the benchmark's are tied together by those pairs:
// each fault is emitted after its span starts, each last page-state
// change before its span ends, which brackets the offset from both
// sides; the midpoint is used and the bracket's width reported.
func analyse(spans []span, events []obs.Event) (*traceAnalysis, error) {
	a := &traceAnalysis{}
	var faults []int
	for i, ev := range events {
		if ev.Type == obs.EvFault {
			faults = append(faults, i)
		}
	}
	if len(faults) != len(spans) || len(spans) == 0 {
		return nil, fmt.Errorf("trace: %d fault events for %d op spans; ops and faults are not one to one", len(faults), len(spans))
	}
	// lastState[i] is the index of op i's last page-state event at the
	// faulting site, among the events emitted before the next fault.
	lastState := make([]int, len(spans))
	lo, hi := int64(-1<<62), int64(1<<62)
	for i, sp := range spans {
		end := len(events)
		if i+1 < len(faults) {
			end = faults[i+1]
		}
		lastState[i] = -1
		for j := end - 1; j > faults[i]; j-- {
			if events[j].Type == obs.EvPageState && events[j].Site == int32(sp.site) {
				lastState[i] = j
				break
			}
		}
		if events[faults[i]].Site != int32(sp.site) || lastState[i] < 0 {
			return nil, fmt.Errorf("trace: op %d at site %d does not line up with fault event at site %d", i, sp.site, events[faults[i]].Site)
		}
		if d := sp.start - int64(events[faults[i]].T); d > lo {
			lo = d
		}
		if d := sp.end - int64(events[lastState[i]].T); d < hi {
			hi = d
		}
	}
	a.offsetNs = lo + (hi-lo)/2
	a.slackNs = float64(hi - lo)

	var per [nKinds][]phases
	var hopAll []float64
	for i, sp := range spans {
		end := len(events)
		if i+1 < len(faults) {
			end = faults[i+1]
		}
		win := events[faults[i]:end]
		ph, chain, ok := walk(win, lastState[i]-faults[i], int32(sp.site))
		if !ok {
			continue
		}
		ph.span = float64(sp.end - sp.start)
		ph.request = float64(int64(chain[0].send.T) + a.offsetNs - sp.start)
		ph.resume = float64(sp.end - int64(events[lastState[i]].T) - a.offsetNs)
		ph.residual = ph.span - ph.request - ph.hops - ph.resume
		ph.library = grantSpan(events, faults[i], a, i)
		per[sp.kind] = append(per[sp.kind], ph)
		for _, h := range chain {
			hopAll = append(hopAll, float64(h.recv.T-h.send.T))
			a.children = append(a.children, childSpan{
				parent: i, name: "hop:" + h.send.Kind.String(), layer: "transport",
				start: int64(h.send.T) + a.offsetNs, end: int64(h.recv.T) + a.offsetNs,
			})
		}
	}
	var pooled []phases
	for k := range per {
		a.byKind[k] = medianPhases(per[k])
		pooled = append(pooled, per[k]...)
	}
	if len(pooled) == 0 {
		return nil, fmt.Errorf("trace: no op's message chain could be walked")
	}
	a.all = medianPhases(pooled)
	a.hopNs = medianF(hopAll)
	return a, nil
}

type hop struct{ send, recv obs.Event }

// walk follows the op's critical chain backwards through its events:
// from the last page-state change at the faulting site to the message
// whose receipt caused it, to that message's send, to the receipt that
// preceded the send at the sender, and so on back to the request the
// faulting site sent. Engine handlers run to completion on one
// goroutine per site, so the receipt just before a send at the same
// site is its cause.
func walk(win []obs.Event, from int, site int32) (phases, []hop, bool) {
	var chain []hop
	at, cur := from, site
	for steps := 0; steps < 64; steps++ {
		r := -1
		for j := at - 1; j >= 0; j-- {
			if win[j].Type == obs.EvMsgRecv && win[j].Site == cur {
				r = j
				break
			}
		}
		if r < 0 {
			break
		}
		recv := win[r]
		s := -1
		for j := r - 1; j >= 0; j-- {
			ev := win[j]
			if ev.Type == obs.EvMsgSend && ev.Kind == recv.Kind && ev.From == recv.From &&
				ev.To == recv.To && ev.Cycle == recv.Cycle && ev.Page == recv.Page {
				s = j
				break
			}
		}
		if s < 0 {
			return phases{}, nil, false
		}
		chain = append(chain, hop{send: win[s], recv: recv})
		at, cur = s, win[s].Site
		if cur == site && (recv.Kind == wire.KReadReq || recv.Kind == wire.KWriteReq) {
			// The op's own request: anything received at this site before
			// it left is a straggler of the previous op, not a cause.
			break
		}
	}
	if len(chain) == 0 || chain[len(chain)-1].send.Site != site {
		return phases{}, nil, false
	}
	// Reverse into causal order.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	var ph phases
	ph.nHops = len(chain)
	for _, h := range chain {
		ph.hops += float64(h.recv.T - h.send.T)
		switch {
		case h.send.From == h.send.To:
			ph.nLoop++
		case h.send.Kind == wire.KPageSend:
			ph.nPage++
		}
	}
	return ph, chain, true
}

// grantSpan is the length of the first grant cycle opened after the
// op's fault: grant-start to the grant-end with the same page and
// cycle tag, which usually lands after the op has already returned.
func grantSpan(events []obs.Event, from int, a *traceAnalysis, parent int) float64 {
	for i := from; i < len(events) && i < from+256; i++ {
		gs := events[i]
		if gs.Type != obs.EvGrantStart {
			continue
		}
		for j := i + 1; j < len(events) && j < i+256; j++ {
			ge := events[j]
			if ge.Type == obs.EvGrantEnd && ge.Seg == gs.Seg && ge.Page == gs.Page && ge.Cycle == gs.Cycle {
				a.children = append(a.children, childSpan{
					parent: parent, name: "grant", layer: "core",
					start: int64(gs.T) + a.offsetNs, end: int64(ge.T) + a.offsetNs,
				})
				return float64(ge.T - gs.T)
			}
		}
		return 0
	}
	return 0
}

func medianPhases(ps []phases) phases {
	if len(ps) == 0 {
		return phases{}
	}
	col := func(f func(phases) float64) float64 {
		vs := make([]float64, len(ps))
		for i, p := range ps {
			vs[i] = f(p)
		}
		return medianF(vs)
	}
	return phases{
		span:     col(func(p phases) float64 { return p.span }),
		request:  col(func(p phases) float64 { return p.request }),
		hops:     col(func(p phases) float64 { return p.hops }),
		nHops:    int(col(func(p phases) float64 { return float64(p.nHops) })),
		nLoop:    int(col(func(p phases) float64 { return float64(p.nLoop) })),
		nPage:    int(col(func(p phases) float64 { return float64(p.nPage) })),
		library:  col(func(p phases) float64 { return p.library }),
		resume:   col(func(p phases) float64 { return p.resume }),
		residual: col(func(p phases) float64 { return p.residual }),
	}
}

// traceLine is one JSONL record of the traced run: an op span, a child
// span rebuilt from protocol events, or a counter delta.
type traceLine struct {
	Type    string `json:"type"` // span | counter
	ID      int    `json:"id,omitempty"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Layer   string `json:"layer,omitempty"`
	Site    int    `json:"site,omitempty"`
	Ops     int    `json:"ops,omitempty"`
	StartNs int64  `json:"start_ns,omitempty"`
	EndNs   int64  `json:"end_ns,omitempty"`
	SelfNs  int64  `json:"self_ns,omitempty"`
	Value   int64  `json:"value,omitempty"`
}

// writeTrace appends the run's spans and counter deltas to path as
// JSON lines. Op spans get ids 1..n in start order per driver; child
// spans follow. A span's self time is its length minus the part of it
// its children cover.
func writeTrace(path, workload string, spans [][]span, a *traceAnalysis, counters map[string]int64) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var encErr error
	emit := func(l traceLine) {
		if encErr == nil {
			encErr = enc.Encode(l)
		}
	}
	id := 0
	first := map[int]int{} // driver → id of its first span
	for d, ss := range spans {
		first[d] = id + 1
		for _, sp := range ss {
			id++
			line := traceLine{Type: "span", ID: id, Name: workload + ":" + kindNames[sp.kind], Layer: "mirage",
				Site: int(sp.site), Ops: int(sp.n), StartNs: sp.start, EndNs: sp.end, SelfNs: sp.end - sp.start}
			if a != nil && d == 0 {
				line.SelfNs -= covered(a.children, id-first[0], sp)
			}
			emit(line)
		}
	}
	if a != nil {
		for _, c := range a.children {
			id++
			emit(traceLine{Type: "span", ID: id, Parent: first[0] + c.parent,
				Name: c.name, Layer: c.layer, StartNs: c.start, EndNs: c.end, SelfNs: c.end - c.start})
		}
	}
	names := make([]string, 0, len(counters))
	for k := range counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		emit(traceLine{Type: "counter", Name: workload + ":" + k, Value: counters[k]})
	}
	if encErr == nil {
		encErr = w.Flush()
	}
	if err := f.Close(); encErr == nil {
		encErr = err
	}
	return encErr
}

// covered is how much of span sp its children (those of a.children
// with parent index idx) cover, overlaps counted once.
func covered(children []childSpan, idx int, sp span) int64 {
	var mine []childSpan
	for _, c := range children {
		if c.parent == idx {
			mine = append(mine, c)
		}
	}
	sort.Slice(mine, func(i, j int) bool { return mine[i].start < mine[j].start })
	var total int64
	edge := sp.start
	for _, c := range mine {
		s, e := c.start, c.end
		if s < edge {
			s = edge
		}
		if e > sp.end {
			e = sp.end
		}
		if e > s {
			total += e - s
			edge = e
		}
	}
	return total
}

// tracedResult is one traced run of one workload.
type tracedResult struct {
	metrics  map[string]float64
	ops      int64
	failed   int64
	bad      error
	analysis *traceAnalysis
	spans    [][]span
	counters map[string]int64
	cycles   int // cycles completed, for per-cycle counts
}

// eventsPerCycle bounds, generously, how many trace events one cycle
// of a counted workload emits; it sizes the trace buffer so that
// nothing is dropped.
const eventsPerCycle = 256

// runShort runs the workload for the traced run's length with the
// given sink (nil: observability off) and returns the measured phase.
func runShort(w *workloadDef, seed int64, lim limit, o *mirage.Obs) (*phaseResult, instance, error) {
	inst, _, err := setUp(w, seed, o, false)
	if err != nil {
		return nil, nil, err
	}
	warm := limit{dur: lim.dur / 4, cycles: lim.cycles / 10}
	runPhase(inst, warm, false, time.Now())
	if b := o.Buffer(); b != nil {
		b.Reset()
	}
	res := runPhase(inst, lim, o != nil, time.Now())
	if res.bad == nil {
		res.bad = inst.verify()
	}
	return res, inst, nil
}

// runTraced produces the workload's own per-layer figures: the same
// run twice, observability off and then on with every event kept. The
// second run's protocol counters, store counters and events give the
// layer metrics; the pair gives the cost of tracing.
func runTraced(w *workloadDef, seed int64, seconds float64) (*tracedResult, error) {
	lim := limit{dur: time.Duration(seconds * float64(time.Second)), cycles: w.traceCycles}
	bufCap := 1 << 20
	if lim.cycles > 0 {
		bufCap = lim.cycles * eventsPerCycle
	}

	plain, inst, err := runShort(w, seed, lim, nil)
	if err != nil {
		return nil, err
	}
	inst.cluster().Close()
	if plain.bad != nil {
		return nil, fmt.Errorf("%s: untraced pass: %w", w.name, plain.bad)
	}

	buf := obs.NewBufferCap(bufCap)
	sinkObs := &mirage.Obs{Metrics: obs.NewRegistry(), Tracer: buf}
	res, inst, err := runShort(w, seed, lim, sinkObs)
	if err != nil {
		return nil, err
	}
	c := inst.cluster()
	defer c.Close()
	events := buf.Events()

	out := &tracedResult{metrics: map[string]float64{}, ops: res.ops, failed: res.failed, bad: res.bad,
		spans: res.spans, counters: map[string]int64{}, cycles: res.cycles}
	m := out.metrics
	ops := float64(max(res.ops, 1))
	st := res.stats
	handoffs := float64(max(st.pages, 1))
	m["core.faults_per_op"] = float64(st.faults) / ops
	m["core.pages_per_op"] = float64(st.pages) / ops
	m["core.handoffs_per_s"] = float64(st.pages) / res.elapsed.Seconds()
	m["core.busy_per_handoff"] = float64(st.busy) / handoffs
	m["core.retries_per_handoff"] = float64(st.retries) / handoffs
	m["core.window_wait_share"] = float64(st.windowWait) / float64(res.elapsed)

	for name, after := range res.obsAfter.Totals {
		if d := after - res.obsBefore.Totals[name]; d != 0 {
			out.counters[name] = d
		}
	}
	m["transport.msgs_per_op"] = float64(out.counters["msgs_sent"]) / ops
	// flush_bytes counts what the TCP writers put on sockets; the
	// engine's own wire_bytes counter also sizes in-process messages
	// that are never encoded.
	m["transport.wire_bytes_per_op"] = float64(out.counters["flush_bytes"]) / ops
	if b := out.counters["flush_batches"]; b > 0 {
		m["transport.frames_per_flush"] = float64(out.counters["flush_frames"]) / float64(b)
	}

	if s, ok := inst.(*storeInst); ok {
		var hits, misses int64
		for _, st := range s.stores[1:] {
			t := st.Stats().Total()
			hits, misses = hits+t.Hits, misses+t.Misses
		}
		// Store counters are cumulative since set-up; the ratios are
		// taken over everything this instance served.
		m["app.hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
		m["app.conflicts_per_op"] = float64(out.counters["app_conflicts"]) / ops
		m["app.faults_per_op"] = m["core.faults_per_op"]
	}

	m["obs.overhead_pct"] = 100 * (1 - res.opsPerSec()/plain.opsPerSec())
	m["obs.events_per_op"] = float64(len(events)) / ops
	m["obs.dropped_events"] = float64(buf.Dropped())

	// From the untraced pass: figures that are end-to-end in kind but
	// can be zero (a hit may come to allocate nothing) or mean nothing
	// with one driver, so they carry no bound.
	m["mirage.allocs_per_op"] = float64(plain.mallocs) / float64(max(plain.ops, 1))
	m["mirage.min_share"] = plain.minShare()
	m["mirage.mean_ops_per_s"] = plain.meanOpsPerSec()
	m["mirage.read_ns_p99"] = float64(percentile(plain.all(kRead), 99))
	m["mirage.write_ns_p99"] = float64(percentile(plain.all(kWrite), 99))

	if w.single && buf.Dropped() == 0 {
		// Only the JSONL's child spans depend on this; a pass whose ops
		// and faults do not pair up still has its counts.
		if out.analysis, err = analyse(res.spans[0], events); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: no child spans: %v\n", w.name, err)
		}
	}
	return out, nil
}
