package main

import (
	"fmt"
	"os"
	"time"

	"mirage"
	"mirage/internal/obs"
)

// A phase probe is phasePasses short traced passes of phaseCycles
// cycles each. A pass lasts tens of milliseconds and the host either
// disturbed it or did not, so for the pooled rows and for each op kind
// the pass with the lowest median op span is reported, whole, so that
// its phases still add up.
const (
	phasePasses = 5
	phaseCycles = 1000
)

// phaseProbes run the fault cycle briefly over each transport with
// every event kept, and report where a faulting op's time goes. The
// pooled medians are BENCHMARK.json's phase rows; the per-kind ones
// (phase.<transport>.<kind>.<phase>) feed the budget table. A pass
// whose ops and fault events do not pair up is skipped; if all are,
// the rows read 0 and the reason goes to standard error.
func phaseProbes(_ time.Duration, out map[string]float64) error {
	for _, t := range []struct{ tag, workload string }{{"inproc", "fault-inproc"}, {"tcp", "fault-tcp"}} {
		w := findWorkload(t.workload)
		var passes []*traceAnalysis
		for pass := 0; pass < phasePasses; pass++ {
			buf := obs.NewBufferCap(phaseCycles * eventsPerCycle)
			res, inst, err := runShort(w, 1, limit{cycles: phaseCycles}, &mirage.Obs{Metrics: obs.NewRegistry(), Tracer: buf})
			if err != nil {
				return err
			}
			inst.cluster().Close()
			if res.bad != nil {
				return fmt.Errorf("phase probe: %s: %w", w.name, res.bad)
			}
			if buf.Dropped() > 0 {
				return fmt.Errorf("phase probe: %s: trace buffer dropped %d events", w.name, buf.Dropped())
			}
			a, err := analyse(res.spans[0], buf.Events())
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: phase probe: %s: %v\n", w.name, err)
				continue
			}
			passes = append(passes, a)
		}
		if len(passes) == 0 {
			continue
		}
		// best is the pass whose median span, as span picks it, is lowest.
		best := func(span func(*traceAnalysis) float64) *traceAnalysis {
			b := passes[0]
			for _, a := range passes[1:] {
				if span(a) < span(b) {
					b = a
				}
			}
			return b
		}
		put := func(prefix string, p phases) {
			out[prefix+"span_ns"] = p.span
			out[prefix+"request_ns"] = p.request
			out[prefix+"hops_per_op"] = float64(p.nHops)
			out[prefix+"loop_hops_per_op"] = float64(p.nLoop)
			out[prefix+"page_hops_per_op"] = float64(p.nPage)
			out[prefix+"hops_ns"] = p.hops
			out[prefix+"library_ns"] = p.library
			out[prefix+"resume_ns"] = p.resume
			out[prefix+"residual_ns"] = p.residual
		}
		pooled := best(func(a *traceAnalysis) float64 { return a.all.span })
		put("phase."+t.tag+"_", pooled.all)
		out["phase."+t.tag+"_hop_ns"] = pooled.hopNs
		out["phase."+t.tag+"_clock_slack_ns"] = pooled.slackNs
		for k, name := range map[opKind]string{kThird: "upgrade", kWrite: "write_fault", kRead: "read_fault"} {
			put("phase."+t.tag+"."+name+".", best(func(a *traceAnalysis) float64 { return a.byKind[k].span }).byKind[k])
		}
	}
	return nil
}
