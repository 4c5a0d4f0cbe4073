package exp

import (
	"errors"
	"fmt"
	"time"

	"mirage/internal/chaos"
	"mirage/internal/core"
	"mirage/internal/ipc"
	"mirage/internal/mem"
)

// ---------------------------------------------------------------------------
// E14 — beyond the paper: protocol resilience under injected faults.
// The paper's prototype assumed a lossless Ethernet ("the current
// implementation does not tolerate site failures", §10.0); this sweep
// measures the cost of dropping that assumption — the reliability
// layer's retransmission overhead and completion-time inflation as the
// message loss rate rises, plus behaviour across a site crash window.

// FaultSweepPoint is one loss-rate measurement of the contended-counter
// workload (3 sites, every increment a cross-site coherence cycle).
type FaultSweepPoint struct {
	DropPct     float64       // injected per-message drop probability, percent
	Completed   bool          // workload finished with the exact expected total
	Final       uint32        // final counter value observed
	Want        uint32        // sites × increments
	Elapsed     time.Duration // virtual time to completion
	Retransmits int           // ARQ resends across all sites
	DupDrops    int           // duplicate deliveries suppressed
	GaveUp      int           // retry budgets exhausted
	Degraded    int           // accessor-visible degraded grants
	NetDropped  int           // messages the injector destroyed
	Delivered   int           // messages the fabric delivered
	Trace
}

// FaultSweepResult is the whole E14 run.
type FaultSweepResult struct {
	Points []FaultSweepPoint
	// Crash is the same workload with a site crashed for a window
	// mid-run instead of random loss.
	Crash FaultSweepPoint
	// ReplayMatches reports the determinism check: the crash point run
	// twice gave one value and one trace.
	ReplayMatches bool
}

// faultSweepRel is the reliability configuration under test: tight
// timers keep the virtual completion times readable.
func faultSweepRel() *core.Reliability {
	// AckTimeout must clear the worst-case simulated RTT (a page each
	// way is ~30 ms) plus injected delay, or the sweep measures spurious
	// retransmissions instead of loss recovery.
	return &core.Reliability{
		AckTimeout:     50 * time.Millisecond,
		MaxBackoff:     200 * time.Millisecond,
		MaxAttempts:    8,
		RequestTimeout: 20 * time.Second,
	}
}

// faultSites is the E14 cluster size.
const faultSites = 3

// faultCase is one E14 run: the loss rate it sweeps (0 for the crash
// window) and its chaos plan.
type faultCase struct {
	dropPct float64
	plan    string
}

// config is the case's cluster: its plan, and the reliability layer
// that retries through it.
func (fc faultCase) config() ipc.Config {
	plan, err := chaos.Parse(fc.plan)
	if err != nil {
		panic(err)
	}
	return ipc.Config{Chaos: plan, Engine: core.Options{Reliability: faultSweepRel()}}
}

// runFaultWorkload drives the counter workload on c: every site adds
// perSite times to one word, then marks itself done.
func runFaultWorkload(c *ipc.Cluster, perSite int) FaultSweepPoint {
	sites := c.Sites()
	var pt FaultSweepPoint
	pt.Want = uint32(sites * perSite)
	var doneAt time.Duration
	for i := 0; i < sites; i++ {
		site := c.Site(i)
		last := i == 0
		site.Spawn("inc", 0, func(p *ipc.Proc) {
			var id mem.SegID
			for {
				var err error
				id, err = p.Shmget(0x4531, 512, mem.Create, rwMode)
				if err == nil {
					break
				}
				p.Sleep(time.Millisecond)
			}
			h, err := p.Shmat(id, false)
			if err != nil {
				return
			}
			add := func(off int) {
				for {
					_, err := h.AddUint32(off, 1)
					if err == nil {
						return
					}
					if !errors.Is(err, core.ErrUnreachable) {
						return
					}
					p.Sleep(50 * time.Millisecond)
				}
			}
			for k := 0; k < perSite; k++ {
				add(0)
				// Let a rival steal the page: every increment then
				// costs a full invalidate-and-transfer cycle, giving
				// the injector real protocol traffic to harass.
				p.Sleep(2 * time.Millisecond)
			}
			add(8) // per-site completion marker
			if last {
				for {
					v, err := h.Uint32(8)
					if err == nil && v == uint32(sites) {
						break
					}
					p.Sleep(10 * time.Millisecond)
				}
				v, _ := h.Uint32(0)
				pt.Final = v
				doneAt = p.Now()
			}
		})
	}
	c.RunFor(10 * time.Minute)
	pt.Completed = pt.Final == pt.Want
	pt.Elapsed = doneAt
	for i := 0; i < sites; i++ {
		st := c.Site(i).Eng.Stats()
		pt.Retransmits += st.Retransmits
		pt.DupDrops += st.DupDrops
		pt.GaveUp += st.GaveUp
		pt.Degraded += st.Degraded
	}
	ns := c.Net.Stats()
	pt.NetDropped = ns.Dropped
	pt.Delivered = ns.Delivered
	return pt
}

// runFaultPoint runs one E14 case.
func runFaultPoint(fc faultCase, perSite int) FaultSweepPoint {
	var pt FaultSweepPoint
	tr := simulate(faultSites, fc.config(), func(c *ipc.Cluster) { pt = runFaultWorkload(c, perSite) })
	pt.DropPct, pt.Trace = fc.dropPct, tr
	return pt
}

// FaultSweep runs the loss-rate sweep (dup and delay stay constant so
// the drop probability is the only variable), then the crash-window
// scenario, and replays the last. Every scenario is an independent
// deterministic cluster, so the whole set fans out across the worker
// pool (see Parallelism) with results identical at any worker count.
func FaultSweep(perSite int, dropPcts []float64) FaultSweepResult {
	var grid []faultCase
	for _, pct := range dropPcts {
		spec := "seed=42; dup p=0.05; delay p=0.1 max=5ms"
		if pct > 0 {
			spec = fmt.Sprintf("seed=42; drop p=%g; dup p=0.05; delay p=0.1 max=5ms", pct/100)
		}
		grid = append(grid, faultCase{pct, spec})
	}
	// Crash window: site 2 is dead (all its traffic destroyed, both
	// directions) for half the run, then comes back. The window sits
	// inside the workload's ~500 ms span so the protocol actually rides
	// through it; the retry budget (~1.3 s) outlasts the outage, so the
	// stalled cycles complete on retransmission once the site returns.
	grid = append(grid, faultCase{0, "seed=42; crash site=2 from=100ms until=400ms"})
	pts, replay := sweepReplayed(grid, func(fc faultCase) FaultSweepPoint { return runFaultPoint(fc, perSite) })
	n := len(dropPcts)
	return FaultSweepResult{Points: pts[:n:n], Crash: pts[n], ReplayMatches: replay}
}
