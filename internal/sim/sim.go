// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and an event queue ordered by
// (time, insertion sequence). Everything above it — the simulated
// network, the per-site CPU schedulers, the Mirage protocol engines —
// is driven by events, so a whole multi-site distributed run executes
// on one OS thread and is bit-for-bit reproducible.
//
// Two styles of simulated activity are supported:
//
//   - Passive callbacks: At/After schedule a func() at a virtual time.
//     Protocol state machines and device models use these.
//   - Processes: Spawn starts a goroutine that models a sequential
//     thread of control (a simulated UNIX process). The kernel and
//     process goroutines hand control back and forth strictly — at any
//     instant at most one goroutine runs — preserving determinism while
//     letting workloads be written as straight-line code.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Time is a virtual timestamp: the duration since the start of the
// simulation. The zero Time is the instant the kernel was created.
type Time time.Duration

// Add returns the timestamp d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts the timestamp to the duration since simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// event is a scheduled callback.
type event struct {
	at    Time
	seq   uint64 // tiebreak: FIFO among events at the same instant
	fn    func()
	index int // heap index; -1 once popped or cancelled
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Kernel is a discrete-event simulator. The zero value is not usable;
// call NewKernel.
type Kernel struct {
	now   Time
	seq   uint64
	queue eventHeap
	procs int // live processes (diagnostic)

	// sameInstant counts consecutively executed events that did not
	// advance the clock. A zero-cost event cycle (A schedules B at the
	// same instant, B schedules A, ...) would otherwise spin the real
	// CPU forever while virtual time stands still; the guard turns that
	// silent hang into a diagnosable panic.
	sameInstant int

	choose Chooser // nil: FIFO among same-instant events
	ready  []*event
}

// Chooser resolves scheduling nondeterminism: when n (>= 2) events are
// runnable at the same virtual instant, it returns the index of the one
// to run next. Indices follow insertion (FIFO) order, so index 0 always
// reproduces the default schedule. Out-of-range returns are clamped.
//
// The hook exists for the coherence schedule explorer (internal/check):
// permuting same-instant event order is exactly the interleaving freedom
// a real cluster has that the default deterministic kernel hides.
type Chooser func(n int) int

// SetChooser installs (or, with nil, removes) the same-instant event
// chooser. Call it before running; swapping mid-run is allowed but the
// chooser only affects events popped after the call.
func (k *Kernel) SetChooser(c Chooser) { k.choose = c }

// NewKernel returns a kernel with an empty event queue at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Timer is a handle to a scheduled event; it can be cancelled.
type Timer struct {
	k *Kernel
	e *event
}

// Cancel removes the event from the queue if it has not fired.
// It reports whether the event was pending.
func (t *Timer) Cancel() bool {
	if t == nil || t.e == nil || t.e.index < 0 {
		return false
	}
	heap.Remove(&t.k.queue, t.e.index)
	t.e.fn = nil
	return true
}

// Pending reports whether the timer's event has not yet fired or been
// cancelled.
func (t *Timer) Pending() bool { return t != nil && t.e != nil && t.e.index >= 0 }

// At schedules fn to run at the virtual time at. Scheduling in the past
// panics: it indicates a model bug, not a recoverable condition.
func (k *Kernel) At(at Time, fn func()) *Timer {
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now))
	}
	k.seq++
	e := &event{at: at, seq: k.seq, fn: fn}
	heap.Push(&k.queue, e)
	return &Timer{k: k, e: e}
}

// After schedules fn to run d from now. Negative d panics.
func (k *Kernel) After(d time.Duration, fn func()) *Timer {
	return k.At(k.now.Add(d), fn)
}

// Post schedules fn at the current instant, after all callbacks already
// queued for this instant.
func (k *Kernel) Post(fn func()) *Timer { return k.At(k.now, fn) }

// Step runs the next event, advancing the clock to its timestamp.
// It reports whether an event was run. With a Chooser installed and
// several events runnable at the same instant, the chooser picks which
// one runs; otherwise insertion order breaks the tie.
func (k *Kernel) Step() bool {
	for len(k.queue) > 0 {
		e := heap.Pop(&k.queue).(*event)
		if e.fn == nil { // cancelled
			continue
		}
		if k.choose != nil {
			e = k.stepChoice(e)
		}
		if e.at == k.now {
			k.sameInstant++
			// Far beyond any legitimate same-instant burst (bounded by
			// sites × pages × processes), yet cheap to hit quickly when a
			// model bug schedules work in a zero-cost cycle.
			if k.sameInstant > 1<<21 {
				panic(fmt.Sprintf("sim: livelock: %d events executed at %v without advancing the clock", k.sameInstant, k.now))
			}
		} else {
			k.sameInstant = 0
		}
		k.now = e.at
		fn := e.fn
		e.fn = nil
		fn()
		return true
	}
	return false
}

// stepChoice gathers every live event sharing first's instant, asks the
// chooser to pick one, and re-queues the rest. The gathered slice is in
// seq (FIFO) order because the heap pops equal-time events that way, so
// chooser index 0 is always the default schedule.
func (k *Kernel) stepChoice(first *event) *event {
	k.ready = append(k.ready[:0], first)
	for len(k.queue) > 0 && k.queue[0].at == first.at {
		e := heap.Pop(&k.queue).(*event)
		if e.fn == nil {
			continue
		}
		k.ready = append(k.ready, e)
	}
	pick := 0
	if len(k.ready) > 1 {
		pick = k.choose(len(k.ready))
		if pick < 0 || pick >= len(k.ready) {
			pick = 0
		}
	}
	chosen := k.ready[pick]
	for i, e := range k.ready {
		if i != pick {
			heap.Push(&k.queue, e)
		}
		k.ready[i] = nil
	}
	return chosen
}

// Run executes events until the queue is empty.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to
// t. Events scheduled beyond t remain queued.
func (k *Kernel) RunUntil(t Time) {
	for len(k.queue) > 0 {
		// Peek.
		e := k.queue[0]
		if e.fn == nil {
			heap.Pop(&k.queue)
			continue
		}
		if e.at > t {
			break
		}
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
}

// RunFor executes events for d of virtual time from now.
func (k *Kernel) RunFor(d time.Duration) { k.RunUntil(k.now.Add(d)) }

// Idle reports whether no events are pending.
func (k *Kernel) Idle() bool {
	for len(k.queue) > 0 {
		if k.queue[0].fn != nil {
			return false
		}
		heap.Pop(&k.queue)
	}
	return true
}

// Live returns the number of live (spawned, not yet finished) processes.
func (k *Kernel) Live() int { return k.procs }
