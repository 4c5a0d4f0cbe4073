package mirage

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mirage/internal/exp"
	"mirage/internal/sim"
	"mirage/internal/vaxmodel"
	"mirage/internal/wire"
)

// One benchmark per paper table/figure (DESIGN.md's experiment index
// E1–E11). Each runs the experiment on the calibrated simulator and
// reports the reproduced quantities as custom metrics, so
// `go test -bench .` regenerates the evaluation. Wall time per
// iteration is the simulator's speed, not the paper's measurement;
// the custom metrics carry those.

func BenchmarkE1ComponentTimings(b *testing.B) {
	var r exp.ComponentTimingsResult
	for i := 0; i < b.N; i++ {
		r = exp.ComponentTimings()
	}
	b.ReportMetric(float64(r.ShortRTT.Microseconds())/1000, "shortRTT_ms")
	b.ReportMetric(float64(r.PagePlusReply.Microseconds())/1000, "pageReply_ms")
}

func BenchmarkE2Table3RemotePageFetch(b *testing.B) {
	var r exp.Table3Result
	for i := 0; i < b.N; i++ {
		r = exp.Table3()
	}
	b.ReportMetric(float64(r.MeasuredTotal.Microseconds())/1000, "fetch_ms")
}

func BenchmarkE3SingleSiteYield(b *testing.B) {
	var r exp.SingleSiteResult
	for i := 0; i < b.N; i++ {
		r = exp.SingleSiteWorstCase(5 * time.Second)
	}
	b.ReportMetric(r.NoYield, "busywait_cyc/s")
	b.ReportMetric(r.WithYield, "yield_cyc/s")
	b.ReportMetric(r.Speedup, "speedup_x")
}

func BenchmarkE4Figure7WorstCase(b *testing.B) {
	for _, ticks := range []int{0, 2, 6} {
		ticks := ticks
		b.Run(fmt.Sprintf("delta=%dticks", ticks), func(b *testing.B) {
			var pts []exp.Figure7Point
			for i := 0; i < b.N; i++ {
				pts = exp.Figure7(10*time.Second, []int{ticks})
			}
			b.ReportMetric(pts[0].Yield, "yield_cyc/s")
			b.ReportMetric(pts[0].NoYield, "busywait_cyc/s")
		})
	}
}

func BenchmarkE5Figure8Representative(b *testing.B) {
	for _, d := range []time.Duration{0, 120 * time.Millisecond, 600 * time.Millisecond, 1200 * time.Millisecond} {
		d := d
		b.Run(fmt.Sprintf("delta=%v", d), func(b *testing.B) {
			var pts []exp.Figure8Point
			for i := 0; i < b.N; i++ {
				pts = exp.Figure8(exp.CountersConfig{Duration: 10 * time.Second}, []time.Duration{d})
			}
			b.ReportMetric(pts[0].InsnPerSec, "insn/s")
		})
	}
}

func BenchmarkE6Thrashing(b *testing.B) {
	var pts []exp.ThrashPoint
	for i := 0; i < b.N; i++ {
		pts = exp.ThrashingAmelioration(10*time.Second, []int{0, 6})
	}
	b.ReportMetric(pts[0].BystanderUnits, "bystander_d0_units/s")
	b.ReportMetric(pts[1].BystanderUnits, "bystander_d6_units/s")
}

func BenchmarkE7InvalidationAblation(b *testing.B) {
	var pts []exp.PolicyPoint
	for i := 0; i < b.N; i++ {
		pts = exp.InvalidationAblation(exp.CountersConfig{Duration: 5 * time.Second},
			[]time.Duration{600 * time.Millisecond})
	}
	for _, p := range pts {
		b.ReportMetric(p.InsnPerSec, p.Policy.String()+"_insn/s")
	}
}

func BenchmarkE8DynamicDelta(b *testing.B) {
	var r exp.DynamicDeltaResult
	for i := 0; i < b.N; i++ {
		r = exp.DynamicDelta(exp.CountersConfig{Duration: 5 * time.Second})
	}
	b.ReportMetric(r.Fixed[0], "fixed0_insn/s")
	b.ReportMetric(r.Fixed[2], "fixed600_insn/s")
	b.ReportMetric(r.Adaptive[2], "autodelta600_insn/s")
}

func BenchmarkE9TestAndSet(b *testing.B) {
	var r exp.TASResult
	for i := 0; i < b.N; i++ {
		r = exp.TestAndSetScenario(5*time.Second, []int{0, 2})
	}
	b.ReportMetric(r.Solo, "solo_crit/s")
	b.ReportMetric(r.Points[0].CritPerSec, "tested_d0_crit/s")
}

func BenchmarkE10Baseline(b *testing.B) {
	var pts []exp.BaselinePoint
	for i := 0; i < b.N; i++ {
		pts = exp.BaselineComparison(5 * time.Second)
	}
	for _, p := range pts {
		name := strings.ReplaceAll(p.System+"/"+p.Workload, " ", "")
		b.ReportMetric(p.Throughput, name)
	}
}

func BenchmarkE11RemapCost(b *testing.B) {
	var pts []exp.RemapPoint
	for i := 0; i < b.N; i++ {
		pts = exp.RemapCost([]int{1, 256})
	}
	slope := (pts[1].DispatchCost - pts[0].DispatchCost) / time.Duration(pts[1].Pages-pts[0].Pages)
	b.ReportMetric(float64(slope.Nanoseconds())/1000, "remap_us/page")
}

// --- engine micro-benchmarks ---

// BenchmarkWireCodec measures the TCP wire format.
func BenchmarkWireCodec(b *testing.B) {
	m := wire.Msg{
		Kind: wire.KPageSend, Mode: wire.Write, Seg: 1, Page: 2, From: 0,
		Delta: 33 * time.Millisecond, Data: make([]byte, vaxmodel.PageSize),
	}
	buf := wire.Encode(nil, &m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = wire.Encode(buf[:0], &m)
		if _, _, err := wire.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkSimKernel measures raw event throughput of the simulator.
func BenchmarkSimKernel(b *testing.B) {
	k := sim.NewKernel()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			k.After(time.Microsecond, tick)
		}
	}
	k.After(time.Microsecond, tick)
	b.ResetTimer()
	k.Run()
}

// BenchmarkLiveLocalAccess measures the live library's fast path: an
// access to a page already held by the site.
func BenchmarkLiveLocalAccess(b *testing.B) {
	c, err := NewCluster(1, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	id, _ := c.Site(0).Shmget(1, 4096, Create, 0o600)
	seg, _ := c.Site(0).Attach(id, false)
	seg.SetUint32(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seg.Uint32(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveLocalAccessParallel is the same fast path from every
// processor at once, each goroutine on a page of its own: the access
// check runs on the caller's goroutine, so resident accesses at one
// site must not queue behind each other (ns/op falls as -cpu rises).
func BenchmarkLiveLocalAccessParallel(b *testing.B) {
	c, err := NewCluster(1, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const pages = 64
	ps := c.opts.PageSize
	id, _ := c.Site(0).Shmget(1, pages*ps, Create, 0o600)
	seg, _ := c.Site(0).Attach(id, false)
	var next atomic.Int32
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		off := int(next.Add(1)-1) % pages * ps
		for pb.Next() {
			if _, err := seg.Uint32(off); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkLiveRemoteFaultBesideAccessors times a write fault from
// site 1 on a page that three goroutines at site 0 add to without
// pause, more goroutines than the usual two processors: what a remote
// site waits when the accessors of a resident page never block
// (DESIGN.md §17, "The loop's turn"). With a window the fault waits out
// Δ as well; handoffs/s says how many the accessors let through.
func BenchmarkLiveRemoteFaultBesideAccessors(b *testing.B) {
	for _, tc := range []struct {
		name  string
		tcp   bool
		delta time.Duration
	}{
		{"inproc/delta=0", false, 0},
		{"inproc/delta=2ms", false, 2 * time.Millisecond},
		{"tcp/delta=0", true, 0},
		{"tcp/delta=2ms", true, 2 * time.Millisecond},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c, err := NewCluster(2, Options{TCP: tc.tcp, Delta: tc.delta})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			id, _ := c.Site(0).Shmget(1, 512, Create, 0o600)
			remote, _ := c.Site(1).Attach(id, false)
			var stop atomic.Bool
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				seg, _ := c.Site(0).Attach(id, false)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						if _, err := seg.AddUint32(0, 1); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			var fault time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := time.Now()
				if _, err := remote.AddUint32(4, 1); err != nil {
					b.Fatal(err)
				}
				fault += time.Since(t)
				time.Sleep(200 * time.Microsecond) // site 0 takes the page back
			}
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
			b.ReportMetric(float64(fault.Nanoseconds())/float64(b.N), "fault-ns/op")
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "handoffs/s")
		})
	}
}

// BenchmarkLivePageMigration measures the live protocol's full
// cross-site write handoff (inproc transport).
func BenchmarkLivePageMigration(b *testing.B) {
	c, err := NewCluster(2, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	id, _ := c.Site(0).Shmget(1, 512, Create, 0o600)
	a, _ := c.Site(0).Attach(id, false)
	d, _ := c.Site(1).Attach(id, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.SetUint32(0, uint32(i)); err != nil {
			b.Fatal(err)
		}
		if err := d.SetUint32(0, uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(2, "handoffs/op")
}
