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
// latency (trigger to records rebuilt) and end-to-end throughput as the
// crash count rises.

// FailoverPoint is one crash-count measurement of the contended-counter
// workload. The two incrementing sites are never crashed; the library
// chain (creator, then each successor) is.
type FailoverPoint struct {
	Crashes    int           // library-site crashes injected
	Completed  bool          // workload finished with the exact expected total
	Final      uint32        // final counter value observed
	Want       uint32        // incrementers × increments
	Elapsed    time.Duration // virtual time to completion
	Throughput float64       // increments per virtual second
	Failovers  int           // takeover triggers across all sites
	Recoveries int           // completed takeovers
	StaleEpoch int           // messages fenced for carrying a dead epoch
	Degraded   int           // accessor-visible degraded grants
	MaxEpoch   uint32        // highest library epoch seen in the trace
	// RecoverLatency is, per takeover, the virtual time from the first
	// failover trigger to the successor committing the rebuilt records
	// (both taken from the trace).
	RecoverLatency []time.Duration
	// TraceJSONL is the run's full schema-v1 trace, replayable through
	// miragetrace (timeline/check).
	TraceJSONL []byte
}

// FailoverSweepResult is the whole E18 run.
type FailoverSweepResult struct {
	Points []FailoverPoint
	// ReplayMatches reports the determinism check: the deepest point run
	// twice produced identical end times and fault schedules.
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

// runFailoverWorkload drives the counter workload with the first
// `crashes` sites of the library chain fail-stopped mid-run.
func runFailoverWorkload(crashes, perSite int) (FailoverPoint, *ipc.Cluster) {
	const sites = 4
	plan := &chaos.Plan{Seed: 42}
	for i := 0; i < crashes; i++ {
		// The creator dies first; each successor (the next site by
		// number) follows 600 ms later, inside the workload span.
		plan.Crashes = append(plan.Crashes, chaos.Crash{
			Site: i, From: 400*time.Millisecond + time.Duration(i)*600*time.Millisecond,
		})
	}
	o := obs.New()
	c := ipc.NewCluster(sites, ipc.Config{
		Chaos: plan,
		Engine: core.Options{
			Reliability: failoverRel(),
			Failover:    &core.Failover{},
			Obs:         o,
		},
	})
	var pt FailoverPoint
	pt.Crashes = crashes
	pt.Want = uint32(2 * perSite)
	var doneAt time.Duration
	// Site 0 creates the segment (and so is the initial library), writes
	// the seed value, and idles into its crash window.
	c.Site(0).Spawn("lib", 0, func(p *ipc.Proc) {
		id, err := p.Shmget(0x4518, 512, mem.Create, rwMode)
		if err != nil {
			return
		}
		h, err := p.Shmat(id, false)
		if err != nil {
			return
		}
		h.SetUint32(0, 0)
		p.Sleep(10 * time.Minute) // hold the attach; dead from 500ms on
	})
	// Site 1 attaches without accessing: a silent member that is
	// eligible (and first in line) for takeover. Holding every attach
	// past the measured window keeps release traffic out of the trace.
	c.Site(1).Spawn("standby", 0, func(p *ipc.Proc) {
		var id mem.SegID
		for {
			var err error
			id, err = p.Shmget(0x4518, 512, 0, 0)
			if err == nil {
				break
			}
			p.Sleep(time.Millisecond)
		}
		if _, err := p.Shmat(id, false); err != nil {
			return
		}
		p.Sleep(10 * time.Minute)
	})
	// Sites 2 and 3 — never crashed in any point — do the increments,
	// paced so the workload straddles every crash window.
	for i := 2; i < sites; i++ {
		site := c.Site(i)
		last := i == sites-1
		marker := 4 * (i - 1) // per-site done-marker word
		site.Spawn("inc", 0, func(p *ipc.Proc) {
			var id mem.SegID
			for {
				var err error
				id, err = p.Shmget(0x4518, 512, 0, 0)
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
					if _, err := h.AddUint32(off, 1); err == nil {
						return
					} else if !errors.Is(err, core.ErrUnreachable) {
						return
					}
					p.Sleep(50 * time.Millisecond)
				}
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
				v, _ := h.Uint32(0)
				pt.Final = v
				doneAt = p.Now()
			}
			p.Sleep(10 * time.Minute) // hold the attach past the run
		})
	}
	c.RunFor(5 * time.Minute)
	pt.Completed = pt.Final == pt.Want
	pt.Elapsed = doneAt
	if doneAt > 0 {
		pt.Throughput = float64(pt.Want) / doneAt.Seconds()
	}
	for i := 0; i < sites; i++ {
		st := c.Site(i).Eng.Stats()
		pt.Failovers += st.Failovers
		pt.Recoveries += st.Recoveries
		pt.StaleEpoch += st.StaleEpoch
		pt.Degraded += st.Degraded
	}
	events := o.Buffer().Events()
	// Pair each takeover commit with the first trigger since the last
	// commit: that span is the accessor-visible recovery outage.
	trigger := time.Duration(-1)
	for _, ev := range events {
		if ev.Epoch > pt.MaxEpoch {
			pt.MaxEpoch = ev.Epoch
		}
		switch ev.Type {
		case obs.EvFailover:
			if trigger < 0 {
				trigger = ev.T
			}
		case obs.EvRecover:
			if trigger >= 0 {
				pt.RecoverLatency = append(pt.RecoverLatency, ev.T-trigger)
				trigger = -1
			}
		}
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, obs.NewHeader(obs.ClockVirtual, c.Sites()), events); err == nil {
		pt.TraceJSONL = buf.Bytes()
	}
	return pt, c
}

// FailoverSweep runs the crash-count sweep plus a determinism
// double-run of the deepest point. Every scenario is an independent
// deterministic cluster, so the set fans out across the worker pool.
func FailoverSweep(perSite int, crashCounts []int) FailoverSweepResult {
	var r FailoverSweepResult
	r.Points = make([]FailoverPoint, len(crashCounts))
	n := len(crashCounts)
	deepest := 0
	for _, k := range crashCounts {
		if k > deepest {
			deepest = k
		}
	}
	replay := make([]FailoverPoint, 2)
	replayStats := make([]string, 2)
	sweepTasks(n+2, func(i int) {
		if i < n {
			r.Points[i], _ = runFailoverWorkload(crashCounts[i], perSite)
			return
		}
		pt, c := runFailoverWorkload(deepest, perSite)
		replay[i-n] = pt
		replayStats[i-n] = c.Chaos.Stats().String()
	})
	r.ReplayMatches = replay[0].Elapsed == replay[1].Elapsed &&
		replay[0].Recoveries == replay[1].Recoveries &&
		replayStats[0] == replayStats[1]
	return r
}
