package main

import (
	"fmt"
	"time"

	"mirage/internal/core"
	"mirage/internal/mem"
	"mirage/internal/mmu"
)

// stubNet runs n protocol engines on the calling goroutine: Send and
// Exec append to one FIFO that the probe pumps, so what is timed is the
// engines' own CPU work with no transport, no actor hop and no
// scheduler in it.
type stubNet struct {
	engines []*core.Engine
	start   time.Time
	q       []stubItem
	head    int
	sends   int
}

type stubItem struct {
	to int
	m  core.NetMsg
	fn func()
}

type stubEnv struct {
	n    *stubNet
	site int
}

func (e stubEnv) Site() int          { return e.site }
func (e stubEnv) Now() time.Duration { return time.Since(e.n.start) }

// After never fires: the probes run with Δ = 0 and no reliability
// layer, so no engine timer is on any op's path.
func (e stubEnv) After(time.Duration, func()) func() { return func() {} }

func (e stubEnv) Send(to int, m core.NetMsg) {
	e.n.sends++
	e.n.q = append(e.n.q, stubItem{to: to, m: m})
}

func (e stubEnv) Exec(_ time.Duration, fn func()) {
	e.n.q = append(e.n.q, stubItem{fn: fn})
}

// newStubNet builds sites engines sharing one one-page segment whose
// library is site 0.
func newStubNet(sites int) *stubNet {
	n := &stubNet{start: time.Now()}
	for i := 0; i < sites; i++ {
		n.engines = append(n.engines, core.New(stubEnv{n, i}, core.Options{Costs: &core.Costs{}}))
	}
	meta := &mem.Segment{ID: 1, Key: 42, Size: 512, PageSize: 512, Pages: 1, Library: 0, Mode: 0o666}
	n.engines[0].CreateSegment(meta)
	for _, e := range n.engines[1:] {
		e.AttachSegment(meta)
	}
	return n
}

// pump delivers queued work until none is left, so an op's trailing
// bookkeeping (the grant's completion at the library) is charged to it.
func (n *stubNet) pump() {
	for n.head < len(n.q) {
		it := n.q[n.head]
		n.q[n.head] = stubItem{}
		n.head++
		if it.fn != nil {
			it.fn()
		} else {
			n.engines[it.to].Deliver(it.m)
		}
	}
	n.q, n.head = n.q[:0], 0
}

// access is one faulting access at site, driven the way Segment.access
// drives it: check, fault, recheck on wake.
func (n *stubNet) access(site int, write bool) error {
	e := n.engines[site]
	done := false
	var try func()
	try = func() {
		if e.CheckAccess(1, 0, write) == mmu.NoFault {
			done = true
			return
		}
		e.Fault(1, 0, write, int32(100+site), try)
	}
	try()
	n.pump()
	if !done {
		return fmt.Errorf("core probe: site %d access (write=%v) not granted with the queue drained", site, write)
	}
	return nil
}

// coreProbes price the engine alone. The three fault kinds are the
// fault-* workloads' cycle; inval5 is fanout's write.
func coreProbes(per time.Duration, out map[string]float64) error {
	n := newStubNet(2)
	e0 := n.engines[0]
	out["core.check_access_ns"] = nsPerOp(per, func(k int) {
		for i := 0; i < k; i++ {
			if e0.CheckAccess(1, 0, i&1 == 0) == mmu.NoFault {
				sink += uint64(len(e0.Frame(1, 0)))
			}
		}
	})

	// Steady state of the cycle: both sites hold read copies.
	var err error
	ops := []struct {
		name  string
		site  int
		write bool
	}{{"upgrade", 0, true}, {"write_fault", 1, true}, {"read_fault", 0, false}}
	cycle := func() {
		for _, op := range ops {
			if e := n.access(op.site, op.write); e != nil && err == nil {
				err = e
			}
		}
	}
	cycle()
	if err != nil {
		return err
	}
	// Exact message counts per op kind, loopback sends included.
	for _, op := range ops {
		before := n.sends
		if err := n.access(op.site, op.write); err != nil {
			return err
		}
		out["core.msgs_per_"+op.name] = float64(n.sends - before)
	}
	// CPU per op kind: each kind's share of the cycle is timed with one
	// clock reading per op over chunks of cycles; like nsPerOp, the
	// first quartile of the chunks is reported.
	const chunk = 200 // cycles: about a millisecond
	var perKind [3][]float64
	for began := time.Now(); (time.Since(began) < 3*per || len(perKind[0]) < 4) && err == nil; {
		var spent [3]time.Duration
		for c := 0; c < chunk; c++ {
			t := time.Now()
			for i, op := range ops {
				if e := n.access(op.site, op.write); e != nil {
					err = e
				}
				now := time.Now()
				spent[i] += now.Sub(t)
				t = now
			}
		}
		for i := range ops {
			perKind[i] = append(perKind[i], float64(spent[i])/chunk)
		}
	}
	if err != nil {
		return err
	}
	for i, op := range ops {
		out["core."+op.name+"_cpu_ns"], _ = quartiles(perKind[i])
	}
	out["core.fault_allocs"] = mallocsPerOp(3000, func(k int) {
		for i := 0; i < k; i += 3 {
			cycle()
		}
	})
	if err != nil {
		return err
	}

	// Six engines: site 0 writes over a five-member copyset; the five
	// re-reads that rebuild the copyset are not timed.
	n = newStubNet(6)
	reread := func() {
		for s := 1; s < 6 && err == nil; s++ {
			err = n.access(s, false)
		}
	}
	reread()
	var invals []float64
	for began := time.Now(); (time.Since(began) < per || len(invals) < 4) && err == nil; {
		var inval time.Duration
		for c := 0; c < chunk && err == nil; c++ {
			t := time.Now()
			err = n.access(0, true)
			inval += time.Since(t)
			reread()
		}
		invals = append(invals, float64(inval)/chunk)
	}
	if err != nil {
		return err
	}
	out["core.inval5_cpu_ns"], _ = quartiles(invals)
	return nil
}
