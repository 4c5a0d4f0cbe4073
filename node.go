package mirage

import (
	"sync"
	"time"

	"mirage/internal/core"
	"mirage/internal/transport"
	"mirage/internal/wire"
)

// node is one live site: a protocol engine and the turn that serializes
// its steps. A step — an in-process message, an accessor's fault, a
// timer, a call — runs on the goroutine it lands on when the site is
// idle: that goroutine takes the turn, runs the step, works off whatever
// the step and others queued meanwhile, and gives the turn back. When
// the site is busy the step joins the inbox, and whoever holds the turn
// runs it. The site's own goroutine, the loop, takes the turn for what
// is left to it: a windowed access's turn (which exists to put the
// accessor off the processor), a message a TCP reader received, and the
// rest of the inbox when a borrowing goroutine has done its share. A
// resident access checks and holds its page through the segment's
// core.Mapping on the accessor's own goroutine and comes here only for
// that turn (DESIGN.md §8.3, §17).
type node struct {
	site  int
	eng   *core.Engine
	tr    transport.Transport
	start time.Time

	mu     sync.Mutex
	cond   *sync.Cond // the loop waits here for work nobody else runs
	ops    []loopItem // non-empty only while busy, or while the loop is being woken
	spare  []loopItem // recycled batch backing array
	busy   bool       // some goroutine holds the turn
	closed bool
	done   chan struct{}
}

// borrowedBatches bounds what a goroutine that took an idle site's turn
// works off beyond its own step: the batches queued meanwhile, up to this
// many, before it hands the rest to the loop. A fault chain at one site
// is a few batches; the bound only keeps a sender or an accessor from
// being held by a site that never goes quiet.
const borrowedBatches = 8

// loopItem is one queued step: either a function to run or an inbound
// protocol message to hand to the engine. Messages get their own variant
// so the delivery path queues a bare pointer instead of allocating a
// closure per message.
type loopItem struct {
	fn func()
	m  *wire.Msg
}

func (n *node) step(it loopItem) {
	if it.m != nil {
		n.eng.Deliver(it.m)
	} else {
		it.fn()
	}
}

func newNode(site int, start time.Time) *node {
	n := &node{site: site, start: start, done: make(chan struct{})}
	n.cond = sync.NewCond(&n.mu)
	return n
}

// startLoop starts the site's own goroutine; call after eng and tr are
// set. It takes the turn whenever the inbox holds work and nobody holds
// the turn, and exits once the node is closed and its inbox worked off.
func (n *node) startLoop() {
	go func() {
		defer close(n.done)
		n.mu.Lock()
		for {
			switch {
			case n.busy || (len(n.ops) == 0 && !n.closed):
				n.cond.Wait()
			case len(n.ops) == 0:
				n.mu.Unlock()
				return
			default:
				n.busy = true
				n.drain(-1)
			}
		}
	}()
}

// drain works off the inbox as the turn's holder, at most limit batches
// (no bound if negative), then gives the turn back; mu is held on entry
// and exit and released while steps run. Each batch is the whole inbox,
// swapped out against a recycled array, so a steady stream costs no
// allocation and one lock round trip per batch. What is left goes to the
// loop, which is woken for it — and for its exit after close.
func (n *node) drain(limit int) {
	for ; len(n.ops) > 0 && limit != 0; limit-- {
		batch := n.ops
		n.ops = n.spare[:0]
		n.spare = nil
		n.mu.Unlock()
		for i, it := range batch {
			n.step(it)
			batch[i] = loopItem{}
		}
		n.mu.Lock()
		if n.spare == nil {
			n.spare = batch[:0]
		}
	}
	n.busy = false
	if len(n.ops) > 0 || n.closed {
		n.cond.Signal()
	}
}

// run runs it on the caller if the site is idle, and queues it for the
// turn's holder otherwise; it reports whether the item was accepted
// (after close everything is dropped). It never waits, so it is safe on
// any goroutine, the turn's holder included — a step that sends to its
// own site, or to a site whose turn its goroutine holds further up the
// stack, finds the site busy and queues. A site with queued work is not
// idle: the caller takes the turn, but runs the queue before its item,
// which keeps every sender's messages in the order sent.
func (n *node) run(it loopItem) bool {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return false
	}
	if n.busy {
		n.ops = append(n.ops, it)
		n.mu.Unlock()
		return true
	}
	n.busy = true
	if len(n.ops) == 0 {
		n.mu.Unlock()
		n.step(it)
		n.mu.Lock()
	} else {
		n.ops = append(n.ops, it)
	}
	n.drain(borrowedBatches)
	n.mu.Unlock()
	return true
}

// queue hands it to the turn's holder, or to the loop, and never runs
// it on the caller: it is what an accessor that must leave the
// processor waits on (Turn), and how a TCP reader delivers (receive).
// It never blocks and reports whether the item was accepted.
func (n *node) queue(it loopItem) bool {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return false
	}
	n.ops = append(n.ops, it)
	if !n.busy {
		n.cond.Signal()
	}
	n.mu.Unlock()
	return true
}

// call runs fn as a step and waits for it to finish: on the caller if
// the site is idle.
func (n *node) call(fn func()) {
	ch := make(chan struct{})
	n.run(loopItem{fn: func() {
		fn()
		close(ch)
	}})
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

// deliver is the in-process mesh's handler, callable from any goroutine
// — a sending site's step, a chaos timer. It never waits: the message is
// a step at an idle site, run here, and at a busy one a bare pointer —
// no per-message closure — in the inbox of the turn's holder.
func (n *node) deliver(m *wire.Msg) {
	n.run(loopItem{m: m})
}

// receive is the TCP mesh's handler: the message is queued, never run
// on the connection's reader. A reader that ran the step read its next
// frame and woke its accessor later, and fault-tcp and store-tcp lost
// 9–16 % for it (E34).
func (n *node) receive(m *wire.Msg) {
	n.queue(loopItem{m: m})
}

// nodeEnv adapts the node to core.Env. Live mode keeps real time and
// ignores the simulated CPU costs. The engine calls it from a step only,
// on whichever goroutine holds the turn.
type nodeEnv struct{ n *node }

func (e nodeEnv) Site() int          { return e.n.site }
func (e nodeEnv) Now() time.Duration { return time.Since(e.n.start) }

// After keeps core.Env's promise that a cancelled timer never fires.
// Stopping the timer is not enough — it may already have queued fn — so
// the fire looks at a flag the cancel sets. Both are steps, serialized by
// the turn: the flag needs no synchronization of its own.
func (e nodeEnv) After(d time.Duration, fn func()) func() {
	cancelled := false
	t := time.AfterFunc(d, func() {
		e.n.run(loopItem{fn: func() {
			if !cancelled {
				fn()
			}
		}})
	})
	return func() {
		cancelled = true
		t.Stop()
	}
}

// Send hands m to the transport, but for what the site tells itself
// (requester and library coincide): that goes to the back of the site's
// own inbox, in order with its other messages to itself, and the turn's
// holder — this step's goroutine — runs it before giving the turn back.
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
// calls Exec only as the last thing a step does: queueing fn would cost
// a lock round trip and put it behind items nothing orders it against.
func (e nodeEnv) Exec(cost time.Duration, fn func()) {
	_ = cost // live nodes run at native speed
	fn()
}
