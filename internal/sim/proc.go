package sim

import (
	"fmt"
	"time"
)

// Proc models a sequential thread of control inside the simulation: a
// simulated process (or kernel daemon). The function passed to Spawn
// runs on its own goroutine, but the kernel hands control to at most
// one goroutine at a time, so simulation state needs no locking and
// runs are deterministic.
//
// A Proc interacts with virtual time only through its blocking
// primitives (Sleep, Park) and through higher-level facilities built on
// them (the sched package's CPU, the ipc package's calls). Returning
// from the spawned function terminates the process.
type Proc struct {
	k      *Kernel
	name   string
	resume chan struct{} // kernel -> proc: you hold control
	yield  chan struct{} // proc -> kernel: control returned
	parked bool
	dead   bool
}

// Spawn starts a new simulated process executing fn. The process begins
// running at the current instant (as a queued event). Spawn may be
// called from kernel callbacks or from other processes.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		k:      k,
		name:   name,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	k.procs++
	go func() {
		<-p.resume // wait for first dispatch
		fn(p)
		p.dead = true
		k.procs--
		p.yield <- struct{}{} // return control to kernel forever
	}()
	k.Post(func() { p.transfer() })
	return p
}

// transfer hands control to the process goroutine and waits for it to
// block or terminate. Must be called from the kernel's goroutine (i.e.
// inside an event callback).
func (p *Proc) transfer() {
	if p.dead {
		return
	}
	p.resume <- struct{}{}
	<-p.yield
}

// park blocks the process until something calls Unpark. It must be
// called from the process's own goroutine.
func (p *Proc) park() {
	p.parked = true
	p.yield <- struct{}{} // give control back to the kernel
	<-p.resume            // wait to be rescheduled
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Dead reports whether the process function has returned.
func (p *Proc) Dead() bool { return p.dead }

// Park blocks the calling process indefinitely until Unpark is called
// on it. Calling Park from any goroutine other than the process's own
// corrupts the handoff protocol; it panics where detectably misused.
func (p *Proc) Park() {
	if p.dead {
		panic(fmt.Sprintf("sim: Park on dead process %q", p.name))
	}
	p.park()
}

// Unpark makes a parked process runnable again at the current instant.
// It must be called with the kernel in control (from an event callback
// or from another process); the parked process resumes when the
// scheduled event fires. Unpark of a non-parked process panics: it
// indicates a lost-wakeup style model bug.
func (p *Proc) Unpark() {
	if !p.parked {
		panic(fmt.Sprintf("sim: Unpark of non-parked process %q", p.name))
	}
	p.parked = false
	p.k.Post(func() { p.transfer() })
}

// Parked reports whether the process is blocked in Park.
func (p *Proc) Parked() bool { return p.parked }

// Resume transfers control to a parked process synchronously: the
// process runs at the current instant until it parks again (or
// terminates), and then Resume returns. It must be called from kernel
// (event) context, never from another process's goroutine. Schedulers
// use Resume to run a task and inspect, inline, what the task asked
// for next.
func (p *Proc) Resume() {
	if p.dead {
		return
	}
	if !p.parked {
		panic(fmt.Sprintf("sim: Resume of non-parked process %q", p.name))
	}
	p.parked = false
	p.transfer()
}

// Sleep blocks the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	p.k.After(d, func() { p.Unpark() })
	p.Park()
}
