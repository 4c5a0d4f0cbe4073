package exp

import (
	"errors"
	"fmt"
	"time"

	"mirage/internal/chaos"
	"mirage/internal/core"
	"mirage/internal/ipc"
	"mirage/internal/mem"
	"mirage/internal/obs"
	"mirage/internal/vaxmodel"
)

// ---------------------------------------------------------------------------
// E20 — breaking the 64-site wall. The paper's prototype ran on a
// handful of VAXen and §8.0 only speculates about larger networks; the
// protocol itself invalidates readers one unicast order at a time, so
// the clock site's NIC serializes O(N) sends per write fault. This
// study sweeps cluster size to N=1000 on the calibrated simulator and
// compares that flat unicast against the k-ary fan-out tree
// (Options.InvalFanout, DESIGN.md §13), where the clock sends O(k)
// orders carrying subtree copysets and interior holder sites relay.
//
// The workload is the worst case for invalidation: every site reads
// one page, then a single writer (colocated with the library and clock
// at site 0) writes it, invalidating all N-1 readers at once. A
// Go-side barrier — invisible to the simulated network — separates the
// read phase from the write, so the measured write fault carries
// exactly the invalidation cycle and nothing else.

// ScalePoint is one cell of the E20 grid: a cluster size × fan-out
// arity, measured over several barriered write faults.
type ScalePoint struct {
	Sites  int // cluster size N
	Fanout int // tree arity k; 0 = the paper's flat unicast
	Rounds int // write faults measured (each invalidates N-1 readers)

	LibSends   float64 // site-0 protocol sends per write fault
	InvalLatMs float64 // mean write-fault completion latency, ms
	KBFault    float64 // wire kilobytes per write fault (all sites)
	LibCPU     float64 // site-0 CPU busy share over the whole run
	Relays     int64   // relay forwards observed across the run
}

// ScaleSizes is the E20 cluster-size axis.
var ScaleSizes = []int{10, 50, 100, 250, 500, 1000}

// ScaleFanouts is the E20 arity axis (0 = flat unicast baseline).
var ScaleFanouts = []int{0, 4, 8, 16}

// quickScaleSizes and quickScaleFanouts are the CI smoke grid.
var (
	quickScaleSizes   = []int{10, 100, 250}
	quickScaleFanouts = []int{0, 8}
)

// ScaleSweep runs the E20 grid. quick shrinks it to the CI smoke
// subset (N ≤ 250, k ∈ {0, 8}). Points run in parallel (each on a
// private virtual-time cluster) and results are deterministic.
func ScaleSweep(quick bool) []ScalePoint {
	sizes, fanouts := ScaleSizes, ScaleFanouts
	if quick {
		sizes, fanouts = quickScaleSizes, quickScaleFanouts
	}
	type pt struct{ n, k int }
	var grid []pt
	for _, n := range sizes {
		for _, k := range fanouts {
			grid = append(grid, pt{n, k})
		}
	}
	return sweep(grid, func(p pt) ScalePoint {
		r, _ := runScalePoint(p.n, p.k, 3, "", nil)
		return r
	})
}

// scaleRounds etc. pace the barriered workload. The poll interval
// trades simulator event count against barrier slack; the settle sleep
// lets the last read grant's Δ window expire so the measured write
// never hits a retry.
const (
	scalePoll     = 25 * time.Millisecond
	scaleSettle   = 50 * time.Millisecond
	scaleDelta    = 2 * time.Millisecond
	scaleDeadline = 5 * time.Minute // virtual-time bail-out for every loop
)

// scaleConfig is an E20 cluster: Δ scaleDelta, fan-out k and, when
// chaosSpec is non-empty, that chaos plan with the reliability layer
// enabled; rel overrides the ARQ profile for such runs (nil takes the
// engine's defaults, which scale with the cluster: the linear-in-N
// profile this experiment discovered, after a fixed 30 ms AckTimeout
// retransmitted into the library's own install backlog and
// congestion-collapsed the cluster, is core.Reliability's).
func scaleConfig(k int, chaosSpec string, rel *core.Reliability) (ipc.Config, error) {
	cfg := ipc.Config{Delta: scaleDelta, Engine: core.Options{InvalFanout: k}}
	if chaosSpec != "" {
		plan, err := chaos.Parse(chaosSpec)
		if err != nil {
			return cfg, fmt.Errorf("chaos plan: %w", err)
		}
		cfg.Chaos = plan
		if rel == nil {
			rel = &core.Reliability{}
		}
		cfg.Engine.Reliability = rel
	}
	return cfg, nil
}

// runScalePoint builds an n-site cluster with fan-out k and runs rounds
// barriered read-all-then-write cycles on it (scaleRounds). The grid
// reaches 1000 sites, so only a metrics registry is attached.
func runScalePoint(n, k, rounds int, chaosSpec string, rel *core.Reliability) (ScalePoint, error) {
	cfg, err := scaleConfig(k, chaosSpec, rel)
	if err != nil {
		return ScalePoint{}, err
	}
	cfg.Engine.Obs = &obs.Obs{Metrics: obs.NewRegistry()}
	return scaleRounds(ipc.NewCluster(n, cfg), k, rounds)
}

// scaleRounds runs rounds barriered read-all-then-write cycles on c,
// measuring the write faults through c's metrics registry. The returned
// error reports a workload that failed to complete every round
// (deadline hit or access error).
func scaleRounds(c *ipc.Cluster, k, rounds int) (ScalePoint, error) {
	n, o := c.Sites(), c.Obs
	res := ScalePoint{Sites: n, Fanout: k, Rounds: rounds}

	// Go-side barrier state: the simulator is single-threaded, so
	// plain variables shared by the processes are race-free and cost
	// the simulated network nothing.
	round := 0    // writer bumps; readers follow
	done := 0     // readers increment after each round's read
	quit := false // writer sets after its last measurement; readers then exit
	// A reader's proc exit auto-detaches, which ships a release home;
	// without the quit barrier the early finishers' release flood
	// lands in the library queue ahead of the final write-req and the
	// measured window counts hundreds of release-dones as "write
	// fault" traffic.
	var (
		totalLat   time.Duration
		totalSends int64
		totalBytes int64
		workErr    error
	)
	fail := func(err error) {
		if workErr == nil {
			workErr = err
		}
	}

	const segBytes = vaxmodel.PageSize
	c.Site(0).Spawn("writer", 0, func(p *ipc.Proc) {
		defer func() { quit = true }() // release the readers on any exit
		id, err := p.Shmget(segKey, segBytes, mem.Create, rwMode)
		if err != nil {
			fail(err)
			return
		}
		h, err := p.Shmat(id, false)
		if err != nil {
			fail(err)
			return
		}
		for r := 1; r <= rounds; r++ {
			round = r
			for done < (n-1)*r && p.Now() < scaleDeadline {
				p.Sleep(scalePoll)
			}
			if done < (n-1)*r {
				fail(fmt.Errorf("round %d: %d/%d readers ready at deadline", r, done-(n-1)*(r-1), n-1))
				return
			}
			// Let the read cycle commit before faulting the write: the
			// library drains N-1 serialized KInstalled acks (~3.2 ms
			// each) after the last reader's install, and the Δ window
			// of the last grant must expire. Without this the write-req
			// queues behind the commit and the window measures drain,
			// not invalidation.
			p.Sleep(scaleSettle + time.Duration(n)*4*time.Millisecond)
			sent0 := o.Metrics.Get(0, obs.CMsgSent)
			bytes0 := o.Metrics.Total(obs.CWireByte)
			start := p.Now()
			for {
				err := h.SetUint32(0, uint32(r))
				if err == nil {
					break
				}
				if !errors.Is(err, core.ErrUnreachable) {
					fail(err)
					return
				}
				p.Sleep(100 * time.Millisecond) // crashed peer; retry after heal
				if p.Now() >= scaleDeadline {
					fail(fmt.Errorf("round %d: write unreachable at deadline", r))
					return
				}
			}
			totalLat += p.Now() - start
			totalSends += o.Metrics.Get(0, obs.CMsgSent) - sent0
			totalBytes += o.Metrics.Total(obs.CWireByte) - bytes0
		}
	})
	for i := 1; i < n; i++ {
		c.Site(i).Spawn("reader", 0, func(p *ipc.Proc) {
			var h *ipc.Shm
			for {
				id, err := p.Shmget(segKey, segBytes, 0, 0)
				if err == nil {
					h, err = p.Shmat(id, false)
					if err != nil {
						return
					}
					break
				}
				p.Sleep(scalePoll)
				if p.Now() >= scaleDeadline {
					return
				}
			}
			for r := 1; r <= rounds; r++ {
				for round < r && p.Now() < scaleDeadline {
					p.Sleep(scalePoll)
				}
				for {
					_, err := h.Uint32(0)
					if err == nil {
						break
					}
					if !errors.Is(err, core.ErrUnreachable) {
						return
					}
					p.Sleep(100 * time.Millisecond)
					if p.Now() >= scaleDeadline {
						return
					}
				}
				done++
			}
			for !quit && p.Now() < scaleDeadline {
				p.Sleep(scalePoll)
			}
		})
	}
	c.Run()

	if workErr != nil {
		return res, workErr
	}
	res.LibSends = float64(totalSends) / float64(rounds)
	res.InvalLatMs = float64(totalLat.Microseconds()) / 1e3 / float64(rounds)
	res.KBFault = float64(totalBytes) / 1024 / float64(rounds)
	cpu := c.Site(0).CPU.Stats()
	if now := c.K.Now().Duration(); now > 0 {
		res.LibCPU = float64(cpu.UserBusy+cpu.KernelBusy+cpu.SwitchBusy) / float64(now)
	}
	res.Relays = o.Metrics.Total(obs.CRelay)
	return res, nil
}

// ScaleCheckResult reports one checked E20 run: the full protocol
// trace went through the coherence checker.
type ScaleCheckResult struct {
	Point ScalePoint
	Chaos string // chaos plan in force, "" for a clean run
	Trace
}

// ScaleChecked runs one E20 point through the sweep harness, its trace
// verified against the coherence invariants. chaosSpec, when non-empty,
// injects the fault plan (with the reliability layer enabled) — pass a
// crash window over an interior relay site to exercise the tree's
// unicast fallback under verification.
func ScaleChecked(n, k int, chaosSpec string) (ScaleCheckResult, error) {
	cfg, err := scaleConfig(k, chaosSpec, nil)
	if err != nil {
		return ScaleCheckResult{}, err
	}
	r := ScaleCheckResult{Chaos: chaosSpec}
	r.Trace = simulate(n, cfg, func(c *ipc.Cluster) { r.Point, err = scaleRounds(c, k, 2) })
	return r, err
}

// ScaleRelayRoots returns the interior relay sites a k-ary fan-out
// tree uses for a fresh N-site E20 copyset (readers 1..N-1): the first
// member of each top-level partition. Useful for aiming a chaos crash
// window at a relay (see ScaleChecked).
func ScaleRelayRoots(n, k int) []int {
	m := n - 1 // readers 1..n-1, sorted
	if k < 2 || m <= k {
		return nil
	}
	var roots []int
	for i := 0; i < k; i++ {
		lo, hi := i*m/k, (i+1)*m/k
		if hi-lo > 1 { // singleton partitions are sent direct, not relayed
			roots = append(roots, 1+lo)
		}
	}
	return roots
}
