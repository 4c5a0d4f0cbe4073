package exp

import (
	"time"

	"mirage/internal/core"
	"mirage/internal/ipc"
	"mirage/internal/ivy"
	"mirage/internal/vaxmodel"
)

// ---------------------------------------------------------------------------
// E10 — baseline comparison: Mirage vs a Li/Hudak-style centralized
// manager SVM (Appendix I context). Both run on the identical
// simulated substrate; the differences are exactly the paper's
// mechanisms (Δ, upgrade without page copy, downgrade retention).

// BaselinePoint is one (system, workload) throughput measurement.
type BaselinePoint struct {
	System     string // "mirage(Δ=...)" or "ivy"
	Workload   string // "worst-case" or "representative"
	Throughput float64
	Unit       string
	PageMoves  int // page-carrying transfers observed
}

// ivyCluster builds a cluster running the centralized-manager baseline.
func ivyCluster(n int) *ipc.Cluster {
	return ipc.NewCluster(n, ipc.Config{
		NewDSM: func(env core.Env) ipc.DSM { return ivy.New(env) },
	})
}

// ivyDynCluster builds a cluster running Li & Hudak's dynamic
// distributed manager.
func ivyDynCluster(n int) *ipc.Cluster {
	return ipc.NewCluster(n, ipc.Config{
		NewDSM: func(env core.Env) ipc.DSM { return ivy.NewDynamic(env) },
	})
}

func mirageCluster(n int, delta time.Duration) *ipc.Cluster {
	return ipc.NewCluster(n, ipc.Config{Delta: delta})
}

// BaselineComparison runs the two paper workloads under Mirage (Δ=0
// and a tuned Δ) and under IVY.
func BaselineComparison(dur time.Duration) []BaselinePoint {
	var out []BaselinePoint

	pageMoves := func(c *ipc.Cluster) int {
		total := 0
		for i := 0; i < c.Sites(); i++ {
			switch eng := c.Site(i).DSM.(type) {
			case interface{ Stats() core.Stats }:
				total += eng.Stats().PagesSent
			case interface{ Stats() ivy.Stats }:
				total += eng.Stats().PagesSent
			}
		}
		return total
	}

	worst := func(name string, c *ipc.Cluster) {
		st := runPingPong(c, 0, 1, true, 512, dur)
		c.Run()
		out = append(out, BaselinePoint{
			System: name, Workload: "worst-case",
			Throughput: float64(st.cycles) / dur.Seconds(),
			Unit:       "cycles/s",
			PageMoves:  pageMoves(c),
		})
	}
	rep := func(name string, c *ipc.Cluster) {
		st := runCounters(c, 0, 1, dur)
		c.Run()
		out = append(out, BaselinePoint{
			System: name, Workload: "representative",
			Throughput: 2 * float64(st.iters[0]+st.iters[1]) / dur.Seconds(),
			Unit:       "insn/s",
			PageMoves:  pageMoves(c),
		})
	}

	worst("mirage(Δ=0)", mirageCluster(2, 0))
	worst("mirage(Δ=2 ticks)", mirageCluster(2, 2*vaxmodel.ClockTick))
	worst("ivy-central", ivyCluster(2))
	worst("ivy-dynamic", ivyDynCluster(2))
	rep("mirage(Δ=0)", mirageCluster(2, 0))
	rep("mirage(Δ=600ms)", mirageCluster(2, 600*time.Millisecond))
	rep("ivy-central", ivyCluster(2))
	rep("ivy-dynamic", ivyDynCluster(2))
	return out
}
