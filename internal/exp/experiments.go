package exp

import (
	"time"

	"mirage/internal/core"
	"mirage/internal/ipc"
	"mirage/internal/mem"
	"mirage/internal/netsim"
	"mirage/internal/sim"
	"mirage/internal/vaxmodel"
)

// ---------------------------------------------------------------------------
// E1 — §7.1 component timings.

// ComponentTimingsResult reproduces the two measured message costs.
type ComponentTimingsResult struct {
	ShortRTT      time.Duration // paper: 12.9 ms
	PagePlusReply time.Duration // paper: 21.5 ms
}

// PaperShortRTT and PaperPagePlusReply are the paper's measurements.
const (
	PaperShortRTT      = 12900 * time.Microsecond
	PaperPagePlusReply = 21500 * time.Microsecond
)

// ComponentTimings measures a short round trip and a 1 KB message with
// a short reply between two otherwise idle sites.
func ComponentTimings() ComponentTimingsResult {
	measure := func(size int) time.Duration {
		k := sim.NewKernel()
		n := netsim.New(k, 2)
		var done sim.Time
		n.Bind(1, func(m netsim.Message) { n.Send(netsim.Message{From: 1, To: 0}) })
		n.Bind(0, func(m netsim.Message) { done = k.Now() })
		n.Send(netsim.Message{From: 0, To: 1, Size: size})
		k.Run()
		return done.Duration()
	}
	return ComponentTimingsResult{
		ShortRTT:      measure(0),
		PagePlusReply: measure(1024),
	}
}

// ---------------------------------------------------------------------------
// E2 — Table 3: time to obtain an in-memory page remotely.

// Table3Row is one line of the component breakdown.
type Table3Row struct {
	Name  string
	Paper time.Duration
	Model time.Duration
}

// Table3Result carries the breakdown and the end-to-end measurement.
type Table3Result struct {
	Rows          []Table3Row
	PaperTotal    time.Duration // 27.5 ms
	ModelTotal    time.Duration // sum of rows
	MeasuredTotal time.Duration // observed fault-to-return time in the full simulator
}

// Table3 reproduces the remote page fetch breakdown: a process on site
// 1 read-faults on a page checked in at the library (site 0).
func Table3() Table3Result {
	rows := []Table3Row{
		{"Using Site Read Request", 2500 * time.Microsecond, vaxmodel.ReadRequestService},
		{"Read Request output transmission elapsed", 3200 * time.Microsecond, vaxmodel.MsgSideElapsed(0)},
		{"Read request input reception elapsed", 3200 * time.Microsecond, vaxmodel.MsgSideElapsed(0)},
		{"Server process time for request", 1500 * time.Microsecond, vaxmodel.ServerRequestService},
		{"Page output transmission elapsed", 7500 * time.Microsecond, vaxmodel.MsgSideElapsed(1024)},
		{"Page input reception elapsed", 7500 * time.Microsecond, vaxmodel.MsgSideElapsed(1024)},
		{"Processing Time", 2 * time.Millisecond, vaxmodel.PageInstallService},
	}
	var modelTotal time.Duration
	for _, r := range rows {
		modelTotal += r.Model
	}

	c := ipc.NewCluster(2, ipc.Config{})
	var measured time.Duration
	c.Site(0).Spawn("library", 0, func(p *ipc.Proc) {
		h := attachShared(p, true, 512)
		h.SetUint32(0, 1)
		p.Sleep(2 * time.Second)
	})
	c.Site(1).Spawn("requester", 0, func(p *ipc.Proc) {
		p.Sleep(100 * time.Millisecond)
		h := attachShared(p, false, 512)
		t0 := p.Now()
		h.Uint32(0)
		measured = p.Now() - t0
	})
	c.Run()
	return Table3Result{
		Rows:          rows,
		PaperTotal:    27500 * time.Microsecond,
		ModelTotal:    modelTotal,
		MeasuredTotal: measured,
	}
}

// ---------------------------------------------------------------------------
// E3 — §7.2 single-site worst case: yield() vs busy waiting.

// SingleSiteResult holds cycles/second for the two program variants on
// one site. The paper measured 5 without yield and 166 with (×35).
type SingleSiteResult struct {
	NoYield   float64
	WithYield float64
	Speedup   float64
}

// PaperSingleSite are the §7.2 measurements.
var PaperSingleSite = SingleSiteResult{NoYield: 5, WithYield: 166, Speedup: 35}

// SingleSiteWorstCase runs both variants for dur of virtual time with
// the two processes colocated (no network traffic at all).
func SingleSiteWorstCase(dur time.Duration) SingleSiteResult {
	run := func(useYield bool) float64 {
		c := ipc.NewCluster(1, ipc.Config{})
		st := runPingPong(c, 0, 0, useYield, 512, dur)
		c.Run()
		return float64(st.cycles) / dur.Seconds()
	}
	r := SingleSiteResult{NoYield: run(false), WithYield: run(true)}
	if r.NoYield > 0 {
		r.Speedup = r.WithYield / r.NoYield
	}
	return r
}

// ---------------------------------------------------------------------------
// E4 — Figure 7: two-site worst case throughput vs Δ.

// Figure7Point is throughput at one Δ (in clock ticks, as the paper's
// x-axis).
type Figure7Point struct {
	DeltaTicks int
	Yield      float64 // cycles/second with yield()
	NoYield    float64 // cycles/second busy-waiting
}

// Figure7 sweeps Δ over tick values for both program variants. Each
// point runs for dur of virtual time. Site 0 hosts process 1 and the
// library ("one site acts as user and library site", §7.3); site 1
// hosts process 2. Points run in parallel (see Parallelism): each owns
// a private virtual cluster, so the sweep is deterministic regardless
// of worker count.
func Figure7(dur time.Duration, ticks []int) []Figure7Point {
	return sweep(ticks, func(k int) Figure7Point {
		delta := time.Duration(k) * vaxmodel.ClockTick
		p := Figure7Point{DeltaTicks: k}
		for _, yield := range []bool{true, false} {
			c := ipc.NewCluster(2, ipc.Config{Delta: delta})
			st := runPingPong(c, 0, 1, yield, 512, dur)
			c.Run()
			v := float64(st.cycles) / dur.Seconds()
			if yield {
				p.Yield = v
			} else {
				p.NoYield = v
			}
		}
		return p
	})
}

// WorstCaseTraffic reports protocol traffic per worst-case cycle at a
// given Δ: the analogue of §7.2's "9 messages are sent for one cycle
// of the application; three of these are large". The derived
// communications bound recomputes the paper's 109 ms arithmetic from
// the measured counts.
type WorstCaseTraffic struct {
	DeltaTicks    int
	Cycles        int
	MsgsPerCycle  float64
	LargePerCycle float64
	DerivedBound  time.Duration // raw comm + request/input interrupt charges per cycle
}

// MeasureWorstCaseTraffic runs the yield variant and counts messages.
func MeasureWorstCaseTraffic(dur time.Duration, deltaTicks int) WorstCaseTraffic {
	delta := time.Duration(deltaTicks) * vaxmodel.ClockTick
	c := ipc.NewCluster(2, ipc.Config{Delta: delta})
	st := runPingPong(c, 0, 1, true, 512, dur)
	c.Run()
	ns := c.Net.Stats()
	t := WorstCaseTraffic{DeltaTicks: deltaTicks, Cycles: st.cycles}
	if st.cycles == 0 {
		return t
	}
	cyc := float64(st.cycles)
	t.MsgsPerCycle = float64(ns.Delivered) / cyc
	t.LargePerCycle = float64(ns.LargeMsgs) / cyc
	short := t.MsgsPerCycle - t.LargePerCycle
	raw := time.Duration(t.LargePerCycle*float64(2*vaxmodel.MsgSideElapsed(1024))) +
		time.Duration(short*float64(2*vaxmodel.MsgSideElapsed(0)))
	// The paper adds 2.5 ms per remote page request and 1.5 ms per
	// input interrupt; approximate with the same per-message mapping.
	reqs := float64(c.Site(0).Eng.Stats().RequestsSent+c.Site(1).Eng.Stats().RequestsSent) / cyc
	t.DerivedBound = raw +
		time.Duration(reqs*float64(vaxmodel.ReadRequestService)) +
		time.Duration(t.MsgsPerCycle*float64(vaxmodel.InputInterruptService))
	return t
}

// ---------------------------------------------------------------------------
// E5 — Figure 8: representative application throughput vs Δ.

// Figure8Point is one sweep point: shared read-write instructions per
// second at a given Δ.
type Figure8Point struct {
	Delta      time.Duration
	InsnPerSec float64
}

// PaperFigure8Peak is the paper's maximum: 115,000 read-write
// instructions/second at Δ=600 ms; below Δ=120 ms throughput is poor
// (the "contention" side), above 600 ms it decays gently (the
// "retention" side).
const (
	PaperFigure8Peak      = 115000.0
	PaperFigure8PeakDelta = 600 * time.Millisecond
	PaperFigure8Knee      = 120 * time.Millisecond
)

// Figure8 sweeps Δ for the two conflicting read-writers. Each point
// runs dur of virtual time (the paper's 10 s).
func Figure8(dur time.Duration, deltas []time.Duration) []Figure8Point {
	return sweep(deltas, func(d time.Duration) Figure8Point {
		c := ipc.NewCluster(2, ipc.Config{Delta: d})
		st := runCounters(c, 0, 1, dur)
		c.Run()
		iters := st.iters[0] + st.iters[1]
		return Figure8Point{
			Delta:      d,
			InsnPerSec: 2 * float64(iters) / dur.Seconds(), // read + write per iteration
		}
	})
}

// ---------------------------------------------------------------------------
// E6 — §7.3: thrashing amelioration. "By increasing Δ, although
// application throughput is reduced, system performance is improved
// for other processes."

// ThrashPoint pairs the thrashing application's throughput with a
// compute-only bystander's progress at one Δ.
type ThrashPoint struct {
	DeltaTicks     int
	AppCycles      float64 // worst-case app cycles/second
	BystanderUnits float64 // bystander work units/second (1 ms of CPU each)
}

// ThrashingAmelioration runs the two-site worst case (yield variant,
// so the application's own CPU appetite is small and the bystander's
// loss is protocol service overhead) with an unrelated compute-bound
// process sharing site 0, sweeping Δ.
func ThrashingAmelioration(dur time.Duration, ticks []int) []ThrashPoint {
	return sweep(ticks, func(k int) ThrashPoint {
		delta := time.Duration(k) * vaxmodel.ClockTick
		c := ipc.NewCluster(2, ipc.Config{Delta: delta})
		st := runPingPong(c, 0, 1, true, 512, dur)
		units := 0
		c.Site(0).Spawn("bystander", 0, func(p *ipc.Proc) {
			for p.Now() < dur {
				p.Compute(time.Millisecond)
				units++
			}
		})
		c.Run()
		return ThrashPoint{
			DeltaTicks:     k,
			AppCycles:      float64(st.cycles) / dur.Seconds(),
			BystanderUnits: float64(units) / dur.Seconds(),
		}
	})
}

// ---------------------------------------------------------------------------
// E7 — §7.1 caveats as ablations: invalidation retry policies.

// PolicyPoint is one (policy, Δ) measurement of the representative
// application.
type PolicyPoint struct {
	Policy     core.InvalPolicy
	Delta      time.Duration
	InsnPerSec float64
	Retries    int // library invalidation retries observed
}

// InvalidationAblation compares the paper's two-attempt retry against
// the honor-if-close and queued-invalidation optimizations it proposes
// (§7.1: both were unimplemented in the prototype). Each point runs
// dur of virtual time.
func InvalidationAblation(dur time.Duration, deltas []time.Duration) []PolicyPoint {
	// Flatten the policy × Δ grid so every cell is one parallel point.
	type cell struct {
		policy core.InvalPolicy
		d      time.Duration
	}
	var cells []cell
	for _, policy := range []core.InvalPolicy{core.PolicyRetry, core.PolicyHonorClose, core.PolicyQueue} {
		for _, d := range deltas {
			cells = append(cells, cell{policy, d})
		}
	}
	return sweep(cells, func(cl cell) PolicyPoint {
		c := ipc.NewCluster(2, ipc.Config{
			Delta:  cl.d,
			Engine: core.Options{Policy: cl.policy},
		})
		st := runCounters(c, 0, 1, dur)
		c.Run()
		iters := st.iters[0] + st.iters[1]
		return PolicyPoint{
			Policy:     cl.policy,
			Delta:      cl.d,
			InsnPerSec: 2 * float64(iters) / dur.Seconds(),
			Retries:    c.Site(0).Eng.Stats().Retries + c.Site(1).Eng.Stats().Retries,
		}
	})
}

// ---------------------------------------------------------------------------
// E8 — §8.0 dynamic Δ tuning (the routine Mirage ships disabled).

// DynamicDeltas are E8's Δ choices: the deep contention side, Figure
// 8's knee and peak, the deep retention side.
var DynamicDeltas = [4]time.Duration{0, 120 * time.Millisecond, 600 * time.Millisecond, 2400 * time.Millisecond}

// DynamicDeltaResult compares fixed Δ choices against the closed-loop
// controller on the representative application, insn/s per entry of
// DynamicDeltas.
type DynamicDeltaResult struct {
	Fixed    [4]float64 // every page granted this Δ
	Adaptive [4]float64 // AutoDelta{} seeded at this Δ
}

// DynamicDelta runs the counters workload at each of DynamicDeltas
// twice: fixed, and as the seed of the AutoDelta controller with its
// defaults — the one tuning routine there is (§8.0 ships its own
// disabled). Each run lasts dur of virtual time.
func DynamicDelta(dur time.Duration) DynamicDeltaResult {
	run := func(d time.Duration, ad *core.AutoDelta) float64 {
		c := ipc.NewCluster(2, ipc.Config{Delta: d, Engine: core.Options{AutoDelta: ad}})
		st := runCounters(c, 0, 1, dur)
		c.Run()
		return 2 * float64(st.iters[0]+st.iters[1]) / dur.Seconds()
	}
	// The eight configurations are independent runs: fan them out.
	var r DynamicDeltaResult
	n := len(DynamicDeltas)
	sweepTasks(2*n, func(i int) {
		if i < n {
			r.Fixed[i] = run(DynamicDeltas[i], nil)
		} else {
			r.Adaptive[i-n] = run(DynamicDeltas[i-n], &core.AutoDelta{})
		}
	})
	return r
}

// ---------------------------------------------------------------------------
// E9 — §7.2 test&set: a spinlock whose lock shares a page with the
// data it protects thrashes; Δ>0 helps the locking writer.

// TASPoint is one Δ measurement of the test&set scenario.
type TASPoint struct {
	DeltaTicks int
	CritPerSec float64 // completed critical sections/second at the writer
	PageMoves  int     // page transfers observed
}

// TASResult is the §7.2 test&set study: the locking writer's critical
// section rate alone, and with a remote busy-waiting tester at each Δ.
// The paper's conclusion — "the use of test&set can degrade
// performance substantially if the process in the locked region writes
// to the particular page of the lock while a remote test&set reader is
// testing" — shows as Solo far above every contended point.
type TASResult struct {
	Solo   float64 // crit sections/s with no remote tester
	Points []TASPoint
}

// TestAndSetScenario measures the locking writer with and without the
// remote tester.
func TestAndSetScenario(dur time.Duration, ticks []int) TASResult {
	var r TASResult
	// The solo run is one more independent point: fold it into the fan-out
	// as index 0, with the contended Δ points after it.
	tasks := append([]int{-1}, ticks...)
	pts := sweep(tasks, func(k int) TASPoint {
		if k < 0 {
			solo := ipc.NewCluster(2, ipc.Config{})
			return TASPoint{CritPerSec: runTASWriter(solo, dur, false)}
		}
		delta := time.Duration(k) * vaxmodel.ClockTick
		c := ipc.NewCluster(2, ipc.Config{Delta: delta})
		crit := runTASWriter(c, dur, true)
		moves := c.Site(0).Eng.Stats().PagesSent + c.Site(1).Eng.Stats().PagesSent
		return TASPoint{DeltaTicks: k, CritPerSec: crit, PageMoves: moves}
	})
	r.Solo = pts[0].CritPerSec
	r.Points = pts[1:]
	return r
}

// runTASWriter spawns the locking writer (and optionally the remote
// tester) and returns the writer's critical sections per second.
func runTASWriter(c *ipc.Cluster, dur time.Duration, withTester bool) float64 {
	crit := 0
	c.Site(0).Spawn("locker", 0, func(p *ipc.Proc) {
		h := attachShared(p, true, 512)
		for p.Now() < dur {
			for {
				old, err := h.TestAndSet(0)
				if err != nil {
					return
				}
				if old == 0 {
					break
				}
				p.Yield()
			}
			// Critical section: ~25 ms of data access on the lock's
			// own page, long enough that a remote tester's page steal
			// lands mid-section.
			for i := 0; i < 24; i++ {
				if h.SetUint32(4+4*(i%32), uint32(i)) != nil {
					return
				}
				p.Compute(time.Millisecond)
			}
			if h.Clear(0) != nil {
				return
			}
			crit++
		}
	})
	if withTester {
		c.Site(1).Spawn("tester", 0, func(p *ipc.Proc) {
			p.Sleep(time.Millisecond)
			h := attachShared(p, false, 512)
			for p.Now() < dur {
				old, err := h.TestAndSet(0)
				if err != nil {
					return
				}
				if old == 0 {
					// Got the lock by accident of timing; release at
					// once — the scenario studies the remote *tester*.
					h.Clear(0)
				}
				// §7.2's test&set "uses busy waiting": the tester
				// hammers the interlocked instruction.
				p.Compute(8 * vaxmodel.SpinCheck)
			}
		})
	}
	c.Run()
	return float64(crit) / dur.Seconds()
}

// ---------------------------------------------------------------------------
// E11 — §6.2: lazy remap cost scales with mapped segment size.

// RemapPoint is the dispatch cost for a process with a given number of
// mapped shared pages.
type RemapPoint struct {
	Pages        int
	DispatchCost time.Duration // mean switch cost per dispatch
}

// RemapCost measures mean dispatch (context switch + remap) cost for
// processes attached to segments of increasing size. The paper reports
// 106–125 µs per 512-byte page up to 128 KB segments.
func RemapCost(pageCounts []int) []RemapPoint {
	return sweep(pageCounts, func(pages int) RemapPoint {
		c := ipc.NewCluster(1, ipc.Config{})
		c.Site(0).Spawn("mapped", 0, func(p *ipc.Proc) {
			id, err := p.Shmget(segKey, pages*vaxmodel.PageSize, mem.Create, rwMode)
			if err != nil {
				panic(err)
			}
			h, err := p.Shmat(id, false)
			if err != nil {
				panic(err)
			}
			_ = h
			// Sleep repeatedly: every wakeup is a fresh dispatch that
			// must remap all shared pages.
			for i := 0; i < 50; i++ {
				p.Sleep(time.Millisecond)
			}
		})
		c.Run()
		st := c.Site(0).CPU.Stats()
		mean := time.Duration(0)
		if st.Dispatches > 0 {
			mean = st.SwitchBusy / time.Duration(st.Dispatches)
		}
		return RemapPoint{Pages: pages, DispatchCost: mean}
	})
}

// ---------------------------------------------------------------------------
// E4b — the N-site worst case (§7.2 mentions the application's
// "N-site version"): N processes on N sites pass the token around the
// same page in a ring — every hop is a full invalidate-and-transfer.

// NSitePoint is throughput for one ring size.
type NSitePoint struct {
	Sites        int
	CyclesPerSec float64 // full ring rotations per second
	MsgsPerCycle float64
}

// NSiteWorstCase measures ring-token throughput for each cluster size.
// Site 0 hosts the library; Δ is left at zero (the best setting for a
// pure ping-pong per §10.0's "Δ be small or equal to zero" guidance).
func NSiteWorstCase(dur time.Duration, sizes []int) []NSitePoint {
	return sweep(sizes, func(n int) NSitePoint {
		c := ipc.NewCluster(n, ipc.Config{})
		rounds := 0
		for s := 0; s < n; s++ {
			s := s
			c.Site(s).Spawn("ring", 0, func(p *ipc.Proc) {
				var h *ipc.Shm
				if s == 0 {
					h = attachShared(p, true, 512)
					h.SetUint32(0, 0) // token starts at site 0
				} else {
					p.Sleep(time.Millisecond)
					h = attachShared(p, false, 512)
				}
				for p.Now() < dur {
					v, err := h.Uint32(0)
					if err != nil {
						return
					}
					if int(v)%n == s {
						if h.SetUint32(0, v+1) != nil {
							return
						}
						if s == n-1 {
							rounds++
						}
					} else {
						p.Yield()
					}
				}
			})
		}
		c.Run()
		ns := c.Net.Stats()
		pt := NSitePoint{Sites: n, CyclesPerSec: float64(rounds) / dur.Seconds()}
		if rounds > 0 {
			pt.MsgsPerCycle = float64(ns.Delivered) / float64(rounds)
		}
		return pt
	})
}
