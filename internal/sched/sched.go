// Package sched models a per-site UNIX-style CPU scheduler of the
// Locus era, the substrate the Mirage measurements sit on.
//
// Each simulated site has one CPU. Two kinds of activity compete for
// it:
//
//   - User tasks: heavyweight UNIX processes, scheduled round-robin
//     with a fixed quantum (6 clock ticks, §7.3). A busy-looping task
//     keeps the CPU until its quantum expires — the effect behind the
//     paper's 5 cycles/second single-site measurement — unless it
//     calls Yield, the system call added in §7.2.
//   - Kernel work: the lightweight network-server activity that
//     services protocol messages (§6.0 "Lightweight processes are used
//     in the operating system to service network messages"). Like the
//     Locus server processes, kernel work is scheduled: it runs at
//     once on an idle CPU, but against a computing user task it must
//     wait for the next scheduler pass — the RescheduleLatency grid
//     (every other clock tick), when the UNIX scheduler recomputes
//     priorities and a woken kernel server preempts. This is the
//     mechanism behind §7.2/§7.3: a busy-waiting process delays the
//     colocated library's service work at every protocol step, which
//     is why the yield() call matters so much remotely.
//
// Time consumption is explicit: a task spends CPU only through
// Task.Compute, and service handlers only through CPU.KernelWork
// costs. Dispatching a user task charges a context switch plus the
// lazy shared-memory remap cost of §6.2 (RemapPages × RemapPerPage).
package sched

import (
	"fmt"
	"math"
	"time"

	"mirage/internal/sim"
	"mirage/internal/vaxmodel"
)

// Config sets the scheduler's machine parameters. Zero fields take the
// vaxmodel defaults.
type Config struct {
	Quantum           time.Duration // round-robin quantum
	ClockTick         time.Duration // scheduler clock granularity
	ContextSwitch     time.Duration // dispatch cost excluding remap
	RemapPerPage      time.Duration // lazy remap cost per mapped shared page
	RescheduleLatency time.Duration // delay before a yielding task runs again when alone
	YieldCost         time.Duration // CPU charge of the yield() system call itself
	KernelPreemptGrid time.Duration // scheduler passes at which kernel work preempts user compute
	// HogThreshold is the recent-CPU-usage fraction above which a task
	// counts as compute-bound: its accumulated p_cpu has decayed its
	// priority below the kernel servers', so they preempt it at the
	// next clock tick instead of waiting for a scheduler pass.
	HogThreshold float64
	// LoadTau is the decay horizon of the recent-usage estimate.
	LoadTau time.Duration
}

func (c Config) withDefaults() Config {
	if c.Quantum == 0 {
		c.Quantum = vaxmodel.Quantum
	}
	if c.ClockTick == 0 {
		c.ClockTick = vaxmodel.ClockTick
	}
	if c.ContextSwitch == 0 {
		c.ContextSwitch = vaxmodel.ContextSwitch
	}
	if c.RemapPerPage == 0 {
		c.RemapPerPage = vaxmodel.RemapPerPage
	}
	if c.RescheduleLatency == 0 {
		c.RescheduleLatency = vaxmodel.RescheduleLatency
	}
	if c.YieldCost == 0 {
		c.YieldCost = vaxmodel.YieldCost
	}
	if c.KernelPreemptGrid == 0 {
		c.KernelPreemptGrid = vaxmodel.KernelPreemptGrid
	}
	if c.HogThreshold == 0 {
		c.HogThreshold = vaxmodel.HogThreshold
	}
	if c.LoadTau == 0 {
		c.LoadTau = vaxmodel.PriorityDecayTau
	}
	return c
}

// Stats are cumulative scheduler counters for one CPU.
type Stats struct {
	UserBusy        time.Duration // CPU time consumed by user Compute
	KernelBusy      time.Duration // CPU time consumed by kernel work
	SwitchBusy      time.Duration // dispatch (context switch + remap) time
	Dispatches      int
	Preemptions     int // quantum expirations that switched tasks
	Yields          int
	KernelJobs      int
	KernelQueueWait time.Duration // total enqueue-to-start delay of kernel work
}

type cpuState int

const (
	stIdle cpuState = iota
	stUser          // a user slice is in progress (sliceTimer armed)
	stKernel
	stSwitch // dispatch overhead in progress
)

type kwork struct {
	cost time.Duration
	fn   func()
	at   sim.Time // enqueue time, for queue-delay accounting
}

// CPU is one site's processor.
type CPU struct {
	k    *sim.Kernel
	name string
	cfg  Config

	state      cpuState
	running    bool  // the current task's goroutine holds control right now
	cur        *Task // dispatched user task (may be mid-compute or mid-logic)
	runq       []*Task
	kq         []kwork
	sliceTimer *sim.Timer
	sliceStart sim.Time
	quantumEnd sim.Time

	stats Stats
}

// New creates a CPU on kernel k.
func New(k *sim.Kernel, name string, cfg Config) *CPU {
	return &CPU{k: k, name: name, cfg: cfg.withDefaults()}
}

// Kernel returns the owning simulation kernel.
func (c *CPU) Kernel() *sim.Kernel { return c.k }

// Stats returns a snapshot of the counters.
func (c *CPU) Stats() Stats { return c.stats }

// taskReq is what a task asked the scheduler to do when it parked.
type taskReq int

const (
	reqNone taskReq = iota
	reqCompute
	reqYield
	reqSleep
	reqBlock
)

// Task is a simulated user process bound to one CPU.
type Task struct {
	cpu  *CPU
	proc *sim.Proc
	name string

	req       taskReq
	remaining time.Duration // outstanding compute
	sleepFor  time.Duration

	ready   bool // on the run queue
	blocked bool // in Block, waiting for Wakeup

	// RemapPages, if set, reports how many shared-memory pages must be
	// lazily remapped when this task is dispatched (§6.2). The result
	// is multiplied by RemapPerPage and charged as switch time.
	RemapPages func() int

	// Recent-usage estimate (the p_cpu analogue): exponentially decayed
	// busy time, horizon cfg.LoadTau.
	loadVal float64  // decayed busy seconds
	loadAt  sim.Time // last decay point
}

// noteBusy records d of consumed CPU into the decayed-usage estimate.
func (t *Task) noteBusy(d time.Duration) {
	t.decayLoad()
	t.loadVal += d.Seconds()
}

func (t *Task) decayLoad() {
	now := t.cpu.k.Now()
	if dt := now.Sub(t.loadAt); dt > 0 {
		t.loadVal *= math.Exp(-dt.Seconds() / t.cpu.cfg.LoadTau.Seconds())
	}
	t.loadAt = now
}

// Load returns the task's recent CPU usage fraction in [0,1): the
// steady state for a task that computes continuously approaches 1.
func (t *Task) Load() float64 {
	t.decayLoad()
	return t.loadVal / t.cpu.cfg.LoadTau.Seconds()
}

// Name returns the task's name.
func (t *Task) Name() string { return t.name }

// CPU returns the task's processor.
func (t *Task) CPU() *CPU { return t.cpu }

// Now returns the current virtual time.
func (t *Task) Now() sim.Time { return t.cpu.k.Now() }

// Spawn creates a task running fn and places it on the run queue.
func (c *CPU) Spawn(name string, fn func(t *Task)) *Task {
	t := &Task{cpu: c, name: name}
	t.proc = c.k.Spawn(name, func(p *sim.Proc) {
		p.Park() // wait for first dispatch
		fn(t)
	})
	// The sim kernel posts an initial transfer which will hit the
	// Park above; enqueue the task once that has happened.
	c.k.Post(func() {
		t.ready = true
		c.runq = append(c.runq, t)
		c.maybeRun()
	})
	return t
}

// KernelWork queues a kernel service routine costing cost of CPU time;
// fn runs when the cost has been paid. Kernel work runs FIFO, at once
// on an idle CPU; a computing user task is not preempted for it until
// the task blocks, yields, or its quantum expires (the Locus network
// server is a scheduled lightweight process, not an interrupt
// handler). fn executes in kernel (event) context and may itself
// queue work, wake tasks, or send messages.
func (c *CPU) KernelWork(cost time.Duration, fn func()) {
	c.kq = append(c.kq, kwork{cost, fn, c.k.Now()})
	c.stats.KernelJobs++
	switch c.state {
	case stIdle:
		c.maybeRun()
	case stUser:
		// Cut the running slice at the next scheduler pass so the
		// server can preempt there.
		c.retimeSliceForKq()
	}
}

// retimeSliceForKq shortens an in-progress user slice to end at the
// scheduler pass where pending kernel work preempts (or earlier, if
// the compute finishes first).
func (c *CPU) retimeSliceForKq() {
	pass := c.nextSchedPass(c.kq[0].at)
	if qe := c.quantumEnd; qe < pass {
		pass = qe
	}
	t := c.cur
	now := c.k.Now()
	c.sliceTimer.Cancel()
	done := now.Sub(c.sliceStart)
	t.remaining -= done
	c.stats.UserBusy += done
	t.noteBusy(done)
	c.sliceStart = now
	end := now.Add(t.remaining)
	if pass < end {
		end = pass
	}
	if end <= now {
		c.state = stIdle
		c.sliceEnd0()
		return
	}
	c.state = stUser
	c.sliceTimer = c.k.At(end, c.sliceEnd)
}

// maybeRun advances the CPU state machine. Must be called in kernel
// context whenever new work may have become runnable.
func (c *CPU) maybeRun() {
	if c.state != stIdle || c.running {
		// Busy, or the current task's goroutine is mid-logic (it will
		// park shortly and runCur's continuation drives the next step).
		return
	}
	// Kernel work runs only at genuine scheduling points: when no user
	// task holds the CPU (blocked/yielded/none), at a quantum boundary,
	// or at the scheduler pass following its arrival. A task's own
	// Compute-slice boundaries are not openings: user code between them
	// never enters the kernel.
	if c.kqReady() {
		c.startKernel()
		return
	}
	if c.cur != nil {
		// Current task resumes its compute slice.
		c.startSlice()
		return
	}
	if len(c.runq) > 0 {
		c.dispatch()
	}
}

// nextQuantumBoundary returns the next round-robin boundary strictly
// after now. Quanta tick on a fixed per-CPU grid (multiples of the
// configured quantum), as the UNIX clock-driven scheduler's do: a
// process dispatched mid-quantum owns the CPU only until the grid
// point, and kernel work queued behind a busy process waits for the
// boundary, not a full quantum from dispatch.
func (c *CPU) nextQuantumBoundary(now sim.Time) sim.Time {
	q := sim.Time(c.cfg.Quantum)
	return (now/q + 1) * q
}

// nextSchedPass returns the point at which a woken kernel server
// preempts the computing user process, for work queued at time t.
// Against an interactive-priority task (one that mostly sleeps or
// blocks, like a page-faulting spinner) the server waits for the
// KernelPreemptGrid scheduler pass; against a compute-bound task whose
// priority has decayed (Load above HogThreshold) it preempts at the
// next clock tick.
func (c *CPU) nextSchedPass(t sim.Time) sim.Time {
	g := sim.Time(c.cfg.KernelPreemptGrid)
	if c.cur != nil && c.cur.Load() >= c.cfg.HogThreshold {
		g = sim.Time(c.cfg.ClockTick)
	}
	return (t/g + 1) * g
}

// kqReady reports whether queued kernel work may take the CPU now.
func (c *CPU) kqReady() bool {
	if len(c.kq) == 0 {
		return false
	}
	if c.cur == nil {
		return true
	}
	now := c.k.Now()
	return now >= c.quantumEnd || now >= c.nextSchedPass(c.kq[0].at)
}

func (c *CPU) startKernel() {
	w := c.kq[0]
	c.kq = c.kq[1:]
	c.stats.KernelQueueWait += c.k.Now().Sub(w.at)
	c.state = stKernel
	c.stats.KernelBusy += w.cost
	c.k.After(w.cost, func() {
		c.state = stIdle
		w.fn()
		c.maybeRun()
	})
}

// dispatch takes the head of the run queue, charges switch cost, and
// runs the task.
func (c *CPU) dispatch() {
	t := c.runq[0]
	c.runq = c.runq[1:]
	t.ready = false
	c.cur = t // current from switch start, so Wakeup treats it as running
	cost := c.cfg.ContextSwitch
	if t.RemapPages != nil {
		cost += time.Duration(t.RemapPages()) * c.cfg.RemapPerPage
	}
	c.state = stSwitch
	c.stats.SwitchBusy += cost
	c.stats.Dispatches++
	c.k.After(cost, func() {
		c.state = stIdle
		c.quantumEnd = c.nextQuantumBoundary(c.k.Now())
		if t.remaining > 0 {
			// Resuming a task preempted mid-Compute.
			c.maybeRun()
			return
		}
		c.runCur()
	})
}

// runCur resumes the current task's goroutine, lets it run its
// (instantaneous) logic, and handles the request it parked with.
func (c *CPU) runCur() {
	t := c.cur
	c.running = true
	t.proc.Resume()
	c.running = false
	if t.proc.Dead() {
		c.cur = nil
		c.maybeRun()
		return
	}
	switch t.req {
	case reqCompute:
		c.maybeRun()
	case reqYield:
		c.stats.Yields++
		c.cur = nil
		if len(c.runq) > 0 {
			// Another task is ready: hand off, requeue at the tail.
			t.ready = true
			c.runq = append(c.runq, t)
		} else {
			// Alone on the site: the yielded process does not run
			// again until the scheduler's next pass (§7.3's observed
			// 33 ms sleeps).
			c.k.After(c.cfg.RescheduleLatency, func() { t.wake() })
		}
		c.maybeRun()
	case reqSleep:
		d := t.sleepFor
		c.cur = nil
		c.k.After(d, func() { t.wake() })
		c.maybeRun()
	case reqBlock:
		t.blocked = true
		c.cur = nil
		c.maybeRun()
	default:
		panic(fmt.Sprintf("sched: task %q parked with no request", t.name))
	}
}

// startSlice begins (or resumes) the current task's compute.
func (c *CPU) startSlice() {
	t := c.cur
	if t.remaining <= 0 {
		// Compute done; give the goroutine control for its next step.
		c.runCur()
		return
	}
	if c.quantumEnd <= c.k.Now() {
		// Resuming at or past a quantum boundary (e.g. after kernel
		// work ran there): rotate if anyone is waiting, else take a
		// fresh quantum.
		if len(c.runq) > 0 {
			c.stats.Preemptions++
			c.cur = nil
			t.ready = true
			c.runq = append(c.runq, t)
			c.maybeRun()
			return
		}
		c.quantumEnd = c.nextQuantumBoundary(c.k.Now())
	}
	end := c.k.Now().Add(t.remaining)
	if c.quantumEnd < end {
		end = c.quantumEnd
	}
	if len(c.kq) > 0 {
		if pass := c.nextSchedPass(c.kq[0].at); pass < end {
			end = pass
		}
	}
	if end <= c.k.Now() {
		c.sliceStart = c.k.Now()
		c.sliceEnd0()
		return
	}
	c.state = stUser
	c.sliceStart = c.k.Now()
	c.sliceTimer = c.k.At(end, c.sliceEnd)
}

// sliceEnd fires when the current user slice stops: compute finished
// or quantum expired. Kernel work is serviced only at real scheduling
// points — quantum expiry here, or block/yield/sleep/exit in runCur —
// never merely because a Compute call completed: a busy-waiting
// process gives the kernel no opening until its quantum runs out
// (§7.2).
func (c *CPU) sliceEnd() {
	t := c.cur
	done := c.k.Now().Sub(c.sliceStart)
	t.remaining -= done
	c.stats.UserBusy += done
	t.noteBusy(done)
	c.state = stIdle
	c.sliceEnd0()
}

// sliceEnd0 handles a stopped slice once accounting is done.
func (c *CPU) sliceEnd0() {
	t := c.cur
	if t.remaining > 0 {
		// Quantum expired mid-compute: the scheduler takes over.
		// Pending kernel work runs first; otherwise rotate or renew.
		// startSlice re-checks the boundary when the task resumes.
		c.maybeRun()
		return
	}
	// Compute complete: let the task take its next step.
	c.runCur()
}

// wake moves a task from blocked/sleeping/yielded to the run queue.
func (t *Task) wake() {
	if t.ready || t.cpu.cur == t {
		return
	}
	t.blocked = false
	t.ready = true
	t.cpu.runq = append(t.cpu.runq, t)
	t.cpu.maybeRun()
}

// park records the request and gives control back to the scheduler.
// Called from the task goroutine.
func (t *Task) park(r taskReq) {
	t.req = r
	t.proc.Park()
	t.req = reqNone
}

// Compute consumes d of CPU time. The task may be preempted by kernel
// work at clock ticks and by quantum expiry; Compute returns only once
// the full d has been consumed. d <= 0 returns immediately.
func (t *Task) Compute(d time.Duration) {
	if d <= 0 {
		return
	}
	t.remaining = d
	t.park(reqCompute)
}

// Yield relinquishes the CPU (the yield() system call of §7.2). The
// system call itself costs CPU; then, if another task is ready it runs
// next and the caller moves to the tail of the run queue, and if the
// caller is alone it becomes runnable again after the reschedule
// latency.
func (t *Task) Yield() {
	t.Compute(t.cpu.cfg.YieldCost)
	t.park(reqYield)
}

// Sleep blocks the task for at least d; it then rejoins the run queue.
func (t *Task) Sleep(d time.Duration) {
	t.sleepFor = d
	t.park(reqSleep)
}

// Block parks the task until Wakeup is called on it, modelling a UNIX
// process sleeping on an I/O completion (§6.1: the faulting process
// "awaits the library's request processing by sleeping").
func (t *Task) Block() { t.park(reqBlock) }

// Wakeup makes a Blocked task runnable. It is a no-op if the task is
// already runnable or running; calling it from kernel/event context is
// required. Waking a task that never blocked is a model bug and
// panics.
func (t *Task) Wakeup() {
	if !t.blocked {
		if t.ready || t.cpu.cur == t {
			return
		}
		panic(fmt.Sprintf("sched: Wakeup of task %q that is not blocked", t.name))
	}
	t.wake()
}

// Blocked reports whether the task is parked in Block.
func (t *Task) Blocked() bool { return t.blocked }
