package sched

import (
	"testing"
	"time"

	"mirage/internal/sim"
	"mirage/internal/vaxmodel"
)

// The CPU is the VAX of package vaxmodel, so every expected time below
// is computed from its constants: a dispatch costs cs, quanta end on a
// grid of q, kernel work queued against a computing task waits for the
// next multiple of grid.
const (
	cs   = vaxmodel.ContextSwitch
	q    = vaxmodel.Quantum
	grid = vaxmodel.KernelPreemptGrid
)

func TestComputeConsumesTime(t *testing.T) {
	k := sim.NewKernel()
	c := New(k)
	var end sim.Time
	c.Spawn("w", func(tk *Task) {
		tk.Compute(25 * time.Millisecond)
		end = tk.Now()
	})
	k.Run()
	want := cs + 25*time.Millisecond
	if end.Duration() != want {
		t.Fatalf("compute finished at %v, want %v", end, want)
	}
	if c.Stats().UserBusy != 25*time.Millisecond {
		t.Fatalf("UserBusy = %v", c.Stats().UserBusy)
	}
}

func TestRoundRobinQuantum(t *testing.T) {
	k := sim.NewKernel()
	c := New(k)
	const work = 150 * time.Millisecond
	var doneA, doneB sim.Time
	c.Spawn("a", func(tk *Task) {
		tk.Compute(work)
		doneA = tk.Now()
	})
	c.Spawn("b", func(tk *Task) {
		tk.Compute(work)
		doneB = tk.Now()
	})
	k.Run()
	// a runs [cs, q), b runs [q+cs, 2q), a finishes its rest from 2q+cs,
	// then b finishes its rest after one more switch. Each first slice
	// is q-cs long.
	rest := work - (q - cs)
	if want := 2*q + cs + rest; doneA.Duration() != want {
		t.Fatalf("a done at %v, want %v", doneA, want)
	}
	if want := 2*q + cs + rest + cs + rest; doneB.Duration() != want {
		t.Fatalf("b done at %v, want %v", doneB, want)
	}
	if c.Stats().Preemptions != 2 {
		t.Fatalf("preemptions = %d, want 2", c.Stats().Preemptions)
	}
}

func TestLoneTaskKeepsCPUAcrossQuantum(t *testing.T) {
	k := sim.NewKernel()
	c := New(k)
	const work = 250 * time.Millisecond // crosses two quantum boundaries
	var end sim.Time
	c.Spawn("solo", func(tk *Task) {
		tk.Compute(work)
		end = tk.Now()
	})
	k.Run()
	if want := cs + work; end.Duration() != want {
		t.Fatalf("solo task done at %v, want %v; quantum expiry must not delay a lone task", end, want)
	}
	if c.Stats().Preemptions != 0 {
		t.Fatalf("preemptions = %d, want 0", c.Stats().Preemptions)
	}
}

func TestKernelWorkWaitsForSchedulerPass(t *testing.T) {
	// A busy user task holds the CPU; kernel work queued mid-compute
	// runs at the next scheduler pass (the KernelPreemptGrid), where the
	// woken server preempts — not immediately, and not a whole quantum
	// later.
	k := sim.NewKernel()
	c := New(k)
	var kernelAt sim.Time
	c.Spawn("spin", func(tk *Task) {
		tk.Compute(300 * time.Millisecond)
	})
	k.After(15*time.Millisecond, func() {
		c.KernelWork(time.Millisecond, func() { kernelAt = k.Now() })
	})
	k.Run()
	// The first pass after 15ms is at grid; then 1ms of work.
	if want := grid + time.Millisecond; kernelAt.Duration() != want {
		t.Fatalf("kernel work completed at %v, want %v (right after the pass at %v)", kernelAt, want, grid)
	}
}

func TestKernelWorkRunsWhenTaskBlocks(t *testing.T) {
	// The moment the computing task blocks, pending kernel work runs.
	k := sim.NewKernel()
	c := New(k)
	var kernelAt sim.Time
	tk := c.Spawn("worker", func(tk *Task) {
		tk.Compute(20 * time.Millisecond)
		tk.Block()
	})
	k.After(5*time.Millisecond, func() {
		c.KernelWork(time.Millisecond, func() { kernelAt = k.Now() })
	})
	k.RunFor(time.Second)
	// The task blocks at cs+20ms, before the pass at grid; then 1ms of
	// work.
	if want := cs + 20*time.Millisecond + time.Millisecond; kernelAt.Duration() != want {
		t.Fatalf("kernel work at %v, want %v (right after the task blocks)", kernelAt, want)
	}
	tk.Wakeup()
	k.Run()
}

func TestKernelWorkImmediateWhenIdle(t *testing.T) {
	k := sim.NewKernel()
	c := New(k)
	var at sim.Time
	k.After(3*time.Millisecond, func() {
		c.KernelWork(2*time.Millisecond, func() { at = k.Now() })
	})
	k.Run()
	if at != sim.Time(5*time.Millisecond) {
		t.Fatalf("kernel work at %v, want 5ms (idle CPU runs it at once)", at)
	}
}

func TestKernelWorkFIFOChain(t *testing.T) {
	k := sim.NewKernel()
	c := New(k)
	var order []int
	c.KernelWork(time.Millisecond, func() { order = append(order, 1) })
	c.KernelWork(time.Millisecond, func() { order = append(order, 2) })
	c.KernelWork(time.Millisecond, func() { order = append(order, 3) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if c.Stats().KernelBusy != 3*time.Millisecond {
		t.Fatalf("KernelBusy = %v", c.Stats().KernelBusy)
	}
}

func TestComputeResumesAfterKernelWork(t *testing.T) {
	k := sim.NewKernel()
	c := New(k)
	const work = 150 * time.Millisecond
	var end sim.Time
	c.Spawn("w", func(tk *Task) {
		tk.Compute(work)
		end = tk.Now()
	})
	k.After(5*time.Millisecond, func() {
		c.KernelWork(4*time.Millisecond, func() {})
	})
	k.Run()
	// Task computes [cs, grid), kernel [grid, grid+4ms), task resumes
	// and, alone, keeps the CPU across the quantum boundary: the
	// compute ends 4ms after it would have alone.
	if want := cs + work + 4*time.Millisecond; end.Duration() != want {
		t.Fatalf("compute end = %v, want %v (preempted compute must resume)", end, want)
	}
	if c.Stats().UserBusy != work {
		t.Fatalf("UserBusy = %v, want exactly %v", c.Stats().UserBusy, work)
	}
}

func TestYieldHandsOffToOtherTask(t *testing.T) {
	k := sim.NewKernel()
	c := New(k)
	var order []string
	c.Spawn("a", func(tk *Task) {
		order = append(order, "a1")
		tk.Yield()
		order = append(order, "a2")
	})
	c.Spawn("b", func(tk *Task) {
		order = append(order, "b1")
	})
	k.Run()
	want := []string{"a1", "b1", "a2"}
	for i, s := range want {
		if i >= len(order) || order[i] != s {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if c.Stats().Yields != 1 {
		t.Fatalf("yields = %d", c.Stats().Yields)
	}
}

func TestYieldAloneSleepsRescheduleLatency(t *testing.T) {
	k := sim.NewKernel()
	c := New(k)
	var t0, t1 sim.Time
	c.Spawn("solo", func(tk *Task) {
		t0 = tk.Now()
		tk.Yield()
		t1 = tk.Now()
	})
	k.Run()
	// The yield call's own cost, the reschedule latency, then a
	// dispatch.
	want := vaxmodel.YieldCost + vaxmodel.RescheduleLatency + cs
	if gap := t1.Sub(t0); gap != want {
		t.Fatalf("lone yield latency = %v, want %v", gap, want)
	}
}

func TestSleepWakes(t *testing.T) {
	k := sim.NewKernel()
	c := New(k)
	var woke sim.Time
	c.Spawn("s", func(tk *Task) {
		tk.Sleep(40 * time.Millisecond)
		woke = tk.Now()
	})
	k.Run()
	// Dispatched at cs, sleeps 40ms, dispatched again.
	if want := cs + 40*time.Millisecond + cs; woke.Duration() != want {
		t.Fatalf("woke at %v, want %v", woke, want)
	}
}

func TestBlockAndWakeup(t *testing.T) {
	k := sim.NewKernel()
	c := New(k)
	var resumed sim.Time
	tk := c.Spawn("b", func(tk *Task) {
		tk.Block()
		resumed = tk.Now()
	})
	k.After(25*time.Millisecond, func() {
		if !tk.Blocked() {
			t.Error("task should be blocked")
		}
		tk.Wakeup()
	})
	k.Run()
	if want := 25*time.Millisecond + cs; resumed.Duration() != want {
		t.Fatalf("resumed at %v, want %v", resumed, want)
	}
}

func TestWakeupOfRunnableIsNoop(t *testing.T) {
	k := sim.NewKernel()
	c := New(k)
	tk := c.Spawn("b", func(tk *Task) {
		tk.Block()
	})
	k.After(time.Millisecond, func() {
		tk.Wakeup()
		tk.Wakeup() // second wakeup: task is ready, must be a no-op
	})
	k.Run()
}

func TestBlockedTaskFreesCPU(t *testing.T) {
	k := sim.NewKernel()
	c := New(k)
	var bRan sim.Time
	tk := c.Spawn("blocker", func(tk *Task) {
		tk.Block()
	})
	c.Spawn("other", func(tk *Task) {
		tk.Compute(5 * time.Millisecond)
		bRan = tk.Now()
	})
	k.RunFor(50 * time.Millisecond)
	// The blocker's dispatch, then the other's, then its compute.
	if want := 2*cs + 5*time.Millisecond; bRan.Duration() != want {
		t.Fatalf("other task done at %v, want %v: it should run while the first is blocked", bRan, want)
	}
	tk.Wakeup()
	k.Run()
}

func TestDispatchChargesRemap(t *testing.T) {
	k := sim.NewKernel()
	c := New(k)
	var end sim.Time
	tk := c.Spawn("mapped", func(tk *Task) {
		tk.Compute(time.Millisecond)
		end = tk.Now()
	})
	tk.RemapPages = func() int { return 10 }
	k.Run()
	want := cs + 10*vaxmodel.RemapPerPage + time.Millisecond
	if end.Duration() != want {
		t.Fatalf("end = %v, want %v (switch + 10-page remap + compute)", end, want)
	}
	if c.Stats().SwitchBusy != cs+10*vaxmodel.RemapPerPage {
		t.Fatalf("SwitchBusy = %v", c.Stats().SwitchBusy)
	}
}

func TestBusyWaitQuantumHandoff(t *testing.T) {
	// Reproduces the single-site §7.2 effect in miniature: a busy
	// waiter burns its whole quantum before the partner runs.
	k := sim.NewKernel()
	c := New(k)
	flag := false
	var partnerRan sim.Time
	c.Spawn("spinner", func(tk *Task) {
		for !flag {
			tk.Compute(10 * time.Microsecond) // busy poll
		}
	})
	c.Spawn("setter", func(tk *Task) {
		flag = true
		partnerRan = tk.Now()
	})
	k.RunFor(time.Second)
	// The poll that crosses the boundary is cut there; then a dispatch.
	if want := q + cs; partnerRan.Duration() != want {
		t.Fatalf("setter ran at %v, want %v: right after the quantum expires", partnerRan, want)
	}
}

func TestYieldAvoidsQuantumWaste(t *testing.T) {
	// Same setup but the spinner yields: the setter runs immediately.
	k := sim.NewKernel()
	c := New(k)
	flag := false
	var partnerRan sim.Time
	c.Spawn("spinner", func(tk *Task) {
		for !flag {
			tk.Compute(10 * time.Microsecond)
			tk.Yield()
		}
	})
	c.Spawn("setter", func(tk *Task) {
		flag = true
		partnerRan = tk.Now()
	})
	k.RunFor(time.Second)
	// One poll and one yield call, then the setter's dispatch.
	want := cs + 10*time.Microsecond + vaxmodel.YieldCost + cs
	if partnerRan.Duration() != want {
		t.Fatalf("setter ran at %v, want %v: at once with yield", partnerRan, want)
	}
}

func TestTaskExitReleasesCPU(t *testing.T) {
	k := sim.NewKernel()
	c := New(k)
	var second sim.Time
	c.Spawn("one", func(tk *Task) {
		tk.Compute(time.Millisecond)
	})
	c.Spawn("two", func(tk *Task) {
		tk.Compute(time.Millisecond)
		second = tk.Now()
	})
	k.Run()
	if want := 2*cs + 2*time.Millisecond; second.Duration() != want {
		t.Fatalf("second task done at %v, want %v", second, want)
	}
	if k.Live() != 0 {
		t.Fatalf("live procs = %d", k.Live())
	}
}

func TestManyTasksAllComplete(t *testing.T) {
	k := sim.NewKernel()
	c := New(k)
	done := 0
	for i := 0; i < 25; i++ {
		c.Spawn("t", func(tk *Task) {
			for j := 0; j < 10; j++ {
				tk.Compute(time.Millisecond)
				tk.Yield()
			}
			done++
		})
	}
	k.Run()
	if done != 25 {
		t.Fatalf("done = %d, want 25", done)
	}
}

func TestUserBusyAccountingExact(t *testing.T) {
	k := sim.NewKernel()
	c := New(k)
	total := time.Duration(0)
	for i := 0; i < 5; i++ {
		d := time.Duration(i+1) * 60 * time.Millisecond // most span quanta
		total += d
		c.Spawn("t", func(tk *Task) { tk.Compute(d) })
	}
	// Interleave kernel work to exercise retiming.
	for i := 1; i <= 10; i++ {
		c.KernelWork(500*time.Microsecond, func() {})
		k.After(time.Duration(i)*40*time.Millisecond, func() {
			c.KernelWork(500*time.Microsecond, func() {})
		})
	}
	k.Run()
	if c.Stats().UserBusy != total {
		t.Fatalf("UserBusy = %v, want exactly %v", c.Stats().UserBusy, total)
	}
	if c.Stats().Preemptions == 0 {
		t.Fatal("no preemptions: the test no longer crosses a quantum")
	}
}
