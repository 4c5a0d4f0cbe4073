package mirage

import (
	"sync"
	"time"

	"mirage/internal/core"
	"mirage/internal/transport"
	"mirage/internal/wire"
)

// node is one live site: a protocol engine owned by an actor loop.
// Engine calls happen on the loop goroutine — senders append their
// messages to its inbox (deliver), accessors post faults and wait for
// the wake — with one exception: a resident access checks and holds its
// page through the segment's core.Mapping on the accessor's own
// goroutine and does not come here, but to wait its turn after an
// access to a page under a time window (DESIGN.md §17).
type node struct {
	site  int
	eng   *core.Engine
	tr    transport.Transport
	start time.Time

	mu     sync.Mutex
	cond   *sync.Cond
	ops    []loopItem
	spare  []loopItem // recycled batch backing array
	closed bool
	done   chan struct{}
}

// loopItem is one queued actor operation: either a function to run or
// an inbound protocol message to hand to the engine. Messages get
// their own variant so the delivery path enqueues a bare pointer
// instead of allocating a closure per message.
type loopItem struct {
	fn func()
	m  *wire.Msg
}

func newNode(site int, start time.Time) *node {
	n := &node{site: site, start: start, done: make(chan struct{})}
	n.cond = sync.NewCond(&n.mu)
	return n
}

// startLoop runs the actor loop; call after eng and tr are set. Each
// wakeup drains the whole inbox: the queue is swapped out under the
// lock and processed as one batch, with the drained backing array
// recycled so a steady message stream costs no allocation and one
// lock round trip per batch rather than per message.
func (n *node) startLoop() {
	go func() {
		defer close(n.done)
		for {
			n.mu.Lock()
			for len(n.ops) == 0 && !n.closed {
				n.cond.Wait()
			}
			if len(n.ops) == 0 && n.closed {
				n.mu.Unlock()
				return
			}
			batch := n.ops
			n.ops = n.spare[:0]
			n.spare = nil
			n.mu.Unlock()
			for i, it := range batch {
				if it.m != nil {
					n.eng.Deliver(it.m)
				} else {
					it.fn()
				}
				batch[i] = loopItem{}
			}
			n.mu.Lock()
			if n.spare == nil {
				n.spare = batch[:0]
			}
			n.mu.Unlock()
		}
	}()
}

// enqueue adds one item to the actor inbox; it reports whether the
// item was accepted (after close everything is dropped).
func (n *node) enqueue(it loopItem) bool {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return false
	}
	n.ops = append(n.ops, it)
	n.cond.Signal()
	n.mu.Unlock()
	return true
}

// post queues fn on the actor loop. It never blocks, so it is safe to
// call from within the loop itself (engine callbacks). It reports
// whether the op was accepted; after close it is dropped.
func (n *node) post(fn func()) bool {
	return n.enqueue(loopItem{fn: fn})
}

// call runs fn on the loop and waits for it to finish.
func (n *node) call(fn func()) {
	ch := make(chan struct{})
	n.post(func() {
		fn()
		close(ch)
	})
	<-ch
}

func (n *node) close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.cond.Signal()
	n.mu.Unlock()
	<-n.done
}

// deliver is the transport handler, callable from any goroutine — a
// sending site's loop, a TCP reader, a chaos timer: lock, append,
// signal, never a wait. The message rides the inbox as a bare pointer —
// no per-message closure — and the loop feeds it to the engine.
func (n *node) deliver(m *wire.Msg) {
	n.enqueue(loopItem{m: m})
}

// nodeEnv adapts the node to core.Env. Live mode keeps real time and
// ignores the simulated CPU costs. The engine calls it on the loop
// goroutine only.
type nodeEnv struct{ n *node }

func (e nodeEnv) Site() int          { return e.n.site }
func (e nodeEnv) Now() time.Duration { return time.Since(e.n.start) }

// After keeps core.Env's promise that a cancelled timer never fires.
// Stopping the timer is not enough — it may already have posted fn to
// the inbox — so the posted item looks at a flag the cancel sets. Both
// run on the loop: the flag needs no synchronization.
func (e nodeEnv) After(d time.Duration, fn func()) func() {
	cancelled := false
	t := time.AfterFunc(d, func() {
		e.n.post(func() {
			if !cancelled {
				fn()
			}
		})
	})
	return func() {
		cancelled = true
		t.Stop()
	}
}

// Send hands m to the transport, but for what the site tells itself
// (requester and library coincide): that goes to the back of the
// site's own inbox, in order with its other messages to itself, and
// the loop — which is running, this being one of its items — finds it
// at its next batch without a wake.
func (e nodeEnv) Send(to int, m core.NetMsg) {
	if to == e.n.site {
		e.n.deliver(m.(*wire.Msg))
		return
	}
	// Errors here mean the fabric is down (cluster closing); the
	// blocked accessors are woken by Close.
	_ = e.n.tr.Send(to, m.(*wire.Msg))
}

// Exec runs fn now. A live node charges no CPU cost, and the engine
// calls Exec only as the last thing a loop item does: sending fn
// through the inbox would cost a lock round trip and put it behind
// items nothing orders it against.
func (e nodeEnv) Exec(cost time.Duration, fn func()) {
	_ = cost // live nodes run at native speed
	fn()
}
