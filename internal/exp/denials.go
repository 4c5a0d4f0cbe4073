package exp

import (
	"bytes"
	"time"

	"mirage/internal/ipc"
	"mirage/internal/obs"
	"mirage/internal/vaxmodel"
)

// ---------------------------------------------------------------------------
// E16 — the Figure 7 Δ-sweep re-run under full observability: metrics
// registry on, protocol tracer on. Beyond the throughput curve, each
// point reports what the denial histogram saw — how often the clock
// site refused an invalidation inside an unexpired window, and how much
// window time remained when it did. The remaining-time distribution is
// what explains Figure 7's shape: past Δ = one scheduling quantum the
// denial stops buying the holder CPU time it can use.

// DeltaDenialPoint is one traced Δ setting of the two-site worst case.
type DeltaDenialPoint struct {
	DeltaTicks   int
	CyclesPerSec float64

	// From the metrics registry.
	Denials int64
	Retries int64
	// Remaining is denial_remaining_ns: the Δ-window time left at each
	// denial, recorded where the clock site emits EvDeltaDeny.
	Remaining obs.HistSnapshot

	// TraceJSONL is the run's full protocol trace in the schema-v1
	// JSONL encoding — a pure function of the virtual run, so it is
	// byte-identical across repeats and worker counts.
	TraceJSONL []byte
	Trace
}

// DeltaDenialSweep runs the §7.2 worst case (yield variant) at each Δ
// tick value through the sweep harness, and returns per-point
// throughput, denial statistics, and the serialized trace. Points run
// in parallel (see Parallelism); each owns a private cluster and a
// private sink, so results are deterministic at any worker count.
func DeltaDenialSweep(dur time.Duration, ticks []int) []DeltaDenialPoint {
	return sweep(ticks, func(k int) DeltaDenialPoint {
		p := DeltaDenialPoint{DeltaTicks: k}
		p.Trace = simulate(2, ipc.Config{Delta: time.Duration(k) * vaxmodel.ClockTick}, func(c *ipc.Cluster) {
			st := runPingPong(c, 0, 1, PingPongConfig{UseYield: true}, 512, dur)
			c.Run()
			m := c.Obs.Metrics
			p.CyclesPerSec = float64(st.cycles) / dur.Seconds()
			p.Denials, p.Retries = m.Total(obs.CDeltaDenial), m.Total(obs.CRetry)
			p.Remaining = m.Hist(obs.HDenialRemaining).Snapshot(obs.HDenialRemaining.String())
			var buf bytes.Buffer
			if c.WriteTrace(&buf) == nil {
				p.TraceJSONL = buf.Bytes()
			}
		})
		return p
	})
}
