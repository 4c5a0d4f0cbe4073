package exp

import (
	"bytes"
	"errors"
	"time"

	"mirage/internal/chaos"
	"mirage/internal/core"
	"mirage/internal/ipc"
	"mirage/internal/mem"
	"mirage/internal/obs"
)

// ---------------------------------------------------------------------------
// E18 — beyond the paper: library-site failover. The paper's prototype
// ties every segment to its immortal library site ("the current
// implementation does not tolerate site failures", §10.0). This sweep
// fail-stops the library — then its successor — mid-workload and
// measures what the takeover protocol costs: per-takeover recovery
// latency (trigger to the elected record installed) and end-to-end
// throughput as the crash count rises.

// FailoverPoint is one crash-count measurement of the contended-counter
// workload. The two incrementing sites are never crashed; the library
// chain (creator, then each successor) is.
type FailoverPoint struct {
	Crashes int // library-site crashes injected
	CounterRun
	Failovers  int    // takeover triggers across all sites
	Recoveries int    // completed takeovers
	StaleEpoch int    // messages fenced for carrying a dead epoch
	Degraded   int    // accessor-visible degraded grants
	MaxEpoch   uint32 // highest library epoch seen in the trace
	// RecoverLatency is, per takeover, the virtual time from the first
	// failover trigger to the successor installing the elected records
	// (both taken from the trace).
	RecoverLatency []time.Duration
	// TraceJSONL is the run's full schema-v2 trace, replayable through
	// miragetrace (timeline/check).
	TraceJSONL []byte
	Trace
}

// FailoverSweepResult is the whole E18 run.
type FailoverSweepResult struct {
	Points []FailoverPoint
	// ReplayMatches reports the determinism check: the last point (the
	// deepest crash count) run twice gave one value and one trace.
	ReplayMatches bool
}

// failoverRel keeps give-up horizons short so takeover latency, not
// retransmission backoff, dominates the measurement.
func failoverRel() *core.Reliability {
	return &core.Reliability{
		AckTimeout:     20 * time.Millisecond,
		MaxBackoff:     100 * time.Millisecond,
		MaxAttempts:    5,
		RequestTimeout: 10 * time.Second,
	}
}

// crashCase is one run of the library-crash counter workload E18 and
// E22 share. Site 0 creates the segment (and so is the initial library
// and log leader), writes the seed value, and idles into its crash
// window. Sites 1 to sites-3 attach without accessing: silent members,
// first in line for takeover as the library's followers. The last two
// sites, never
// crashed, do the increments, paced so the workload straddles every
// crash window. Holding every attach past the measured window keeps
// release traffic out of the trace.
type crashCase struct {
	sites    int
	key      mem.Key
	crashes  []chaos.Partition // each cuts off one site: a crash
	replicas int               // Failover.Replicas; 0 takes the default, min(2, sites−1)
}

// CounterRun is what the library-crash counter workload measures, in E18
// and E22 alike.
type CounterRun struct {
	Completed  bool          // workload finished with the exact expected total
	Final      uint32        // final counter value observed
	Want       uint32        // incrementers × increments
	Elapsed    time.Duration // virtual time to completion
	Throughput float64       // increments per virtual second
	// UnavailMs is the longest single increment in the run, ms: the
	// user-visible unavailable-request window around a crash.
	UnavailMs float64
}

// config is the case's cluster: the crash plan and the reliability and
// takeover layers, with the case's group size.
func (cc crashCase) config() ipc.Config {
	eng := core.Options{Reliability: failoverRel(), Failover: &core.Failover{Replicas: cc.replicas}}
	return ipc.Config{Chaos: &chaos.Plan{Seed: 42, Partitions: cc.crashes}, Engine: eng}
}

// run drives the workload on c, perSite increments at each incrementer.
func (cc crashCase) run(c *ipc.Cluster, perSite int) CounterRun {
	r := CounterRun{Want: uint32(2 * perSite)}
	var doneAt, maxStall time.Duration
	c.Site(0).Spawn("lib", 0, func(p *ipc.Proc) {
		id, err := p.Shmget(cc.key, 512, mem.Create, rwMode)
		if err != nil {
			return
		}
		h, err := p.Shmat(id, false)
		if err != nil {
			return
		}
		h.SetUint32(0, 0)
		p.Sleep(10 * time.Minute)
	})
	for i := 1; i < cc.sites-2; i++ {
		c.Site(i).Spawn("standby", 0, func(p *ipc.Proc) {
			if _, err := p.Shmat(awaitSegment(p, cc.key, 512), false); err != nil {
				return
			}
			p.Sleep(10 * time.Minute)
		})
	}
	for i := cc.sites - 2; i < cc.sites; i++ {
		last := i == cc.sites-1
		marker := 4 * (i - (cc.sites - 3)) // per-site done-marker word
		c.Site(i).Spawn("inc", 0, func(p *ipc.Proc) {
			h, err := p.Shmat(awaitSegment(p, cc.key, 512), false)
			if err != nil {
				return
			}
			add := func(off int) {
				start := p.Now()
				for {
					if _, err := h.AddUint32(off, 1); err == nil {
						break
					} else if !errors.Is(err, core.ErrUnreachable) {
						return
					}
					p.Sleep(50 * time.Millisecond)
				}
				maxStall = max(maxStall, p.Now()-start)
			}
			for k := 0; k < perSite; k++ {
				add(0)
				p.Sleep(100 * time.Millisecond)
			}
			add(marker)
			if last {
				for {
					a, erra := h.Uint32(4)
					b, errb := h.Uint32(8)
					if erra == nil && errb == nil && a == 1 && b == 1 {
						break
					}
					p.Sleep(20 * time.Millisecond)
				}
				r.Final, _ = h.Uint32(0)
				doneAt = p.Now()
			}
			p.Sleep(10 * time.Minute) // hold the attach past the run
		})
	}
	c.RunFor(5 * time.Minute)
	r.Completed = r.Final == r.Want
	r.Elapsed = doneAt
	if doneAt > 0 {
		r.Throughput = float64(r.Want) / doneAt.Seconds()
	}
	r.UnavailMs = float64(maxStall.Microseconds()) / 1e3
	return r
}

// takeovers pairs each takeover commit in a traced cluster's trace with
// the first failover trigger since the commit before it — per takeover,
// the accessor-visible recovery outage — and reports the highest library
// epoch the trace shows.
func takeovers(c *ipc.Cluster) (outages []time.Duration, maxEpoch uint32) {
	trigger := time.Duration(-1)
	for _, ev := range c.Obs.Buffer().Events() {
		maxEpoch = max(maxEpoch, ev.Epoch)
		switch ev.Type {
		case obs.EvFailover:
			if trigger < 0 {
				trigger = ev.T
			}
		case obs.EvRecover:
			if trigger >= 0 {
				outages = append(outages, ev.T-trigger)
				trigger = -1
			}
		}
	}
	return outages, maxEpoch
}

// failoverCase is the library-crash counter workload as E18 runs it:
// the first crashes sites of the library chain fail-stopped mid-run.
func failoverCase(crashes int) crashCase {
	cc := crashCase{sites: 4, key: 0x4518}
	for i := 0; i < crashes; i++ {
		// The creator dies first; each successor (the next site by
		// number) follows 600 ms later, inside the workload span.
		cc.crashes = append(cc.crashes, chaos.Partition{
			Sites: []int{i}, From: 400*time.Millisecond + time.Duration(i)*600*time.Millisecond,
		})
	}
	return cc
}

// runFailoverPoint runs one E18 crash count.
func runFailoverPoint(crashes, perSite int) FailoverPoint {
	cc := failoverCase(crashes)
	pt := FailoverPoint{Crashes: crashes}
	pt.Trace = simulate(cc.sites, cc.config(), func(c *ipc.Cluster) {
		pt.CounterRun = cc.run(c, perSite)
		for i := 0; i < c.Sites(); i++ {
			st := c.Site(i).Eng.Stats()
			pt.Failovers += st.Failovers
			pt.Recoveries += st.Recoveries
			pt.StaleEpoch += st.StaleEpoch
			pt.Degraded += st.Degraded
		}
		pt.RecoverLatency, pt.MaxEpoch = takeovers(c)
		var buf bytes.Buffer
		if c.WriteTrace(&buf) == nil {
			pt.TraceJSONL = buf.Bytes()
		}
	})
	return pt
}

// FailoverSweep runs the crash-count sweep and replays its last point.
// Every scenario is an independent deterministic cluster, so the set
// fans out across the worker pool.
func FailoverSweep(perSite int, crashCounts []int) FailoverSweepResult {
	pts, replay := sweepReplayed(crashCounts, func(k int) FailoverPoint { return runFailoverPoint(k, perSite) })
	return FailoverSweepResult{Points: pts, ReplayMatches: replay}
}
