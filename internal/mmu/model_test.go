//go:build mirage_model

package mmu

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The word model. A deterministic scheduler runs up to three goroutines
// on one page — optimistic reads, reads and writes under a hold, and
// one transition — through every interleaving of their steps, up to
// the order of independent steps: the atomic operations on the page's
// word and frame pointer (the model's own atomic types, below) and the accesses'
// byte loads and stores. Two steps are independent when they touch
// different objects or both only read; dynamic partial-order reduction
// (Flanagan and Godefroid, POPL 2005) runs one interleaving of each
// class of orders that differ only in independent steps, and
// TestWordModelReductionMissesNothing checks it against the full
// enumeration where that is small. Each run checks that
//
//   - exclusive holders exclude each other, and a transition changes
//     the frame with no holder in, and no holder writes a frame the
//     page has given up;
//   - an accepted read equals the page at some instant between its two
//     loads of the word — so it is never torn and never older than a
//     section that ended before it began;
//   - no waiter's wake is lost: the run never stops with a goroutine
//     waiting for a word nobody will change;
//   - a waiting transition is overtaken by no hold that had not got in
//     when it set the waiting bit (overtakeBound).
//
//	go test -tags mirage_model ./internal/mmu -run WordModel

// A stepOp names one operation a model goroutine stops at before it
// runs it: an atomic operation on the page's word or frame pointer, a
// waiter's pause, or one of an access's byte loads and stores.
type stepOp uint8

const (
	stepLoad       stepOp = iota // the word, loaded
	stepWrite                    // the word, compare-and-swapped or added to
	stepFrameLoad                // the frame pointer, loaded
	stepFrameStore               // the frame pointer, stored
	stepWait                     // a waiter, until the word is not what it saw
)

// modelStep, when set, is called before each operation on a page's word
// or frame pointer, and by a waiter with the word it saw busy; the
// scheduler sets it and blocks the calling goroutine there until it
// picks it to run the operation.
var modelStep func(op stepOp, seen uint64)

func step(op stepOp, seen uint64) {
	if modelStep != nil {
		modelStep(op, seen)
	}
}

// The model's word and frame pointer, in place of sync/atomic's
// (model_off.go): each operation is a step. raw is the value itself,
// for the scheduler's own looks.
type atomicWord struct{ raw atomic.Uint64 }

func (a *atomicWord) Load() uint64 {
	step(stepLoad, 0)
	return a.raw.Load()
}

func (a *atomicWord) CompareAndSwap(old, new uint64) bool {
	step(stepWrite, 0)
	return a.raw.CompareAndSwap(old, new)
}

func (a *atomicWord) Add(d uint64) uint64 {
	step(stepWrite, 0)
	return a.raw.Add(d)
}

type atomicFrame struct{ raw atomic.Pointer[byte] }

func (a *atomicFrame) Load() *byte {
	step(stepFrameLoad, 0)
	return a.raw.Load()
}

func (a *atomicFrame) Store(f *byte) {
	step(stepFrameStore, 0)
	a.raw.Store(f)
}

func (e *pte) waiting(seen uint64) { step(stepWait, seen) }

// overtakeBound is how many holds may get in while a transition waits
// with the waiting bit set: none.
const overtakeBound = 0

// A script is what one model goroutine does.
type script uint8

const (
	optRead    script = iota // an unrecorded read: Snap, two byte loads, Settled; under a hold if refused
	heldRead                 // a recorded read: under a hold
	write                    // a write: hold, store both bytes, Unhold
	invalidate               // a transition: Invalidate, then Install of new contents
	downgrade                // a transition: Downgrade, then Upgrade
	closeOpen                // a transition: Close, then Open
)

func (sc script) String() string {
	return [...]string{"optRead", "heldRead", "write", "invalidate", "downgrade", "closeOpen"}[sc]
}

func (sc script) transition() bool { return sc >= invalidate }

// The objects a step touches, as a mask: two steps are dependent when
// their masks meet and one of them writes.
const (
	objWord  = 1
	objFrame = 2
	objByte0 = 4
	objByte1 = 8
)

// A move is one step of a model goroutine: an operation of the step
// hook, or one of the accesses' byte loads and stores.
type move struct {
	op    stepOp
	obj   uint8
	write bool
	seen  uint64 // stepWait: the word the waiter saw
}

// The byte moves, numbered past the hook's operations.
const (
	stepByte0 stepOp = 100 + iota // load byte 0
	stepByte1                     // load byte 1
	stepBytes                     // store both bytes
)

func moveOf(op stepOp, seen uint64) move {
	switch op {
	case stepLoad, stepWait:
		return move{op: op, obj: objWord, seen: seen}
	case stepWrite:
		return move{op: op, obj: objWord, write: true}
	case stepFrameLoad:
		return move{op: op, obj: objFrame}
	case stepFrameStore:
		return move{op: op, obj: objFrame, write: true}
	case stepByte0:
		return move{op: op, obj: objByte0}
	case stepByte1:
		return move{op: op, obj: objByte1}
	case stepBytes:
		// The frame too: which frame the store lands in, the page's or
		// one it gave up, is what the store is checked for.
		return move{op: op, obj: objByte0 | objByte1 | objFrame, write: true}
	}
	panic(fmt.Sprintf("model: step %d", op))
}

func dependent(a, b move) bool { return a.obj&b.obj != 0 && (a.write || b.write) }

// errAbort unwinds a goroutine left waiting when a run stops early.
type errAbort struct{}

type proc struct {
	id     int
	sc     script
	run    chan struct{}
	next   move // the step it waits to take
	done   bool
	steps  []int // the indices of its steps taken, in the run
	clock  []int // the vector clock of its last step
	result string
}

// A node is a state of the current run, kept across runs: who could
// move and what each would do, who must still be tried from here, who
// was, and who need not be (the sleep set: a goroutine whose step here
// commutes with every step since a node where it was tried already).
type node struct {
	enabled, backtrack, tried, sleep uint8
	pick                             int
	nexts                            []move
}

// taken is one step of a run: who took it, what it was, and its vector
// clock (per goroutine, one more than the index of its latest step that
// happens before this one).
type taken struct {
	p     int
	m     move
	clock []int
}

type model struct {
	scripts []script
	full    bool // explore every interleaving: no reduction

	stack []node
	runs  int

	// One run.
	s       *Seg
	procs   []*proc
	cur     *proc
	arrive  chan struct{}
	abort   bool
	trace   []taken
	vals    []string // the page before each step: its two bytes, or "-" when it cannot be read
	holders int      // accessors between Hold and Unhold
	tIn     bool     // the transition holds the page
	tWait   bool     // the transition has set the waiting bit and not got in
	retired map[*byte]bool
	bad     string // the first violation
}

func newModel(full bool, scripts ...script) *model {
	return &model{scripts: scripts, full: full}
}

// value is the page as a reader would find it now.
func (m *model) value() string {
	e := &m.s.pages[0]
	if !permits(e.word.raw.Load(), false) {
		return "-"
	}
	f := e.frame.raw.Load()
	if f == nil {
		return "-"
	}
	b := m.s.frameOf(f)
	return fmt.Sprintf("%d,%d", b[0], b[1])
}

func (m *model) fail(format string, args ...any) {
	if m.bad == "" {
		m.bad = fmt.Sprintf(format, args...)
	}
}

// at is a model goroutine arriving at a step: it waits until the
// scheduler picks it to take it.
func (m *model) at(op stepOp, seen uint64) {
	p := m.cur
	p.next = moveOf(op, seen)
	m.arrive <- struct{}{}
	<-p.run
	if m.abort {
		panic(errAbort{})
	}
}

func (m *model) enabled(p *proc) bool {
	return !p.done && (p.next.op != stepWait || m.s.pages[0].word.raw.Load() != p.next.seen)
}

// take runs p's next step to p's arrival at the step after it, and
// records what it changed.
func (m *model) take(p *proc) {
	e := &m.s.pages[0]
	i := len(m.trace)
	clock := append([]int(nil), p.clock...)
	for _, t := range m.trace {
		if dependent(t.m, p.next) {
			for q, c := range t.clock {
				clock[q] = max(clock[q], c)
			}
		}
	}
	clock[p.id] = i + 1
	m.trace = append(m.trace, taken{p: p.id, m: p.next, clock: clock})
	m.vals = append(m.vals, m.value())
	p.steps = append(p.steps, i)
	p.clock = clock

	if p.next.op == stepFrameStore && m.holders > 0 {
		m.fail("%v changed the frame under %d holder(s)", p.sc, m.holders)
	}
	w0, f0 := e.word.raw.Load(), e.frame.raw.Load()
	m.cur = p
	p.run <- struct{}{}
	<-m.arrive
	w1, f1 := e.word.raw.Load(), e.frame.raw.Load()
	if f1 != f0 && f0 != nil {
		m.retired[f0] = true
	}
	took := w0&exclBit == 0 && w1&exclBit != 0
	switch {
	case !p.sc.transition():
		if took && m.tWait {
			m.fail("%v #%d overtook a waiting transition (bound %d)", p.sc, p.id, overtakeBound)
		}
	case took:
		m.tIn, m.tWait = true, false
		if m.holders > 0 {
			m.fail("%v took the page from %d holder(s)", p.sc, m.holders)
		}
	case w0&exclBit != 0 && w1&exclBit == 0:
		m.tIn = false
	case w0&waitBit == 0 && w1&waitBit != 0:
		m.tWait = true
	}
}

// dpor adds to the backtrack sets what p's next step calls for: the
// latest step it is dependent with, by another goroutine and not known
// to happen before it, may go the other way round.
func (m *model) dpor(p *proc) {
	for i := len(m.trace) - 1; i >= 0; i-- {
		t := m.trace[i]
		if t.p == p.id || !dependent(t.m, p.next) || p.clock[t.p] >= i+1 {
			continue
		}
		n := &m.stack[i]
		if n.enabled&(1<<p.id) != 0 {
			n.backtrack |= 1 << p.id
		} else {
			n.backtrack |= n.enabled
		}
		return
	}
}

// enter and leave bracket an accessor's hold, as its script sees it.
func (m *model) enter(p *proc) {
	if m.holders > 0 || m.tIn {
		m.fail("%v #%d got in beside %d holder(s) (transition in: %v)", p.sc, p.id, m.holders, m.tIn)
	}
	m.holders++
}

func (m *model) leave() { m.holders-- }

// accepted checks a read that p kept: its bytes must be the page at an
// instant between its steps from and to.
func (m *model) accepted(p *proc, got string, from, to int) {
	for k := from; k <= to; k++ {
		if m.vals[k] == got {
			p.result = got
			return
		}
	}
	m.fail("%v #%d kept %s, but the page between its steps %d and %d was %v",
		p.sc, p.id, got, from, to, m.vals[from:to+1])
}

// readHeld is a read under a hold.
func (m *model) readHeld(p *proc) {
	f, ok := m.s.Hold(0, false)
	if !ok {
		p.result = "fault"
		return
	}
	m.enter(p)
	from := p.steps[len(p.steps)-1]
	m.at(stepByte0, 0)
	b0 := f[0]
	m.at(stepByte1, 0)
	b1 := f[1]
	m.accepted(p, fmt.Sprintf("%d,%d", b0, b1), from, p.steps[len(p.steps)-1])
	m.leave()
	m.s.Unhold(0, false)
}

func (m *model) play(p *proc) {
	s := m.s
	switch p.sc {
	case optRead:
		n := len(p.steps)
		if f, at, ok := s.Snap(0); ok {
			from := p.steps[n]
			m.at(stepByte0, 0)
			b0 := f[0]
			m.at(stepByte1, 0)
			b1 := f[1]
			n = len(p.steps)
			if s.Settled(0, at) {
				m.accepted(p, fmt.Sprintf("%d,%d", b0, b1), from, p.steps[n])
				return
			}
		}
		m.readHeld(p)
	case heldRead:
		m.readHeld(p)
	case write:
		f, ok := s.Hold(0, true)
		if !ok {
			p.result = "fault"
			return
		}
		m.enter(p)
		m.at(stepBytes, 0)
		if m.retired[&f[0]] {
			m.fail("write #%d into a frame the page gave up", p.id)
		}
		f[0], f[1] = byte(10+p.id), byte(10+p.id)
		m.leave()
		s.Unhold(0, true)
		p.result = "wrote"
	case invalidate:
		s.Invalidate(0)
		data := make([]byte, s.pageSize)
		data[0], data[1] = byte(100+p.id), byte(100+p.id)
		s.Install(0, data, ReadWrite, 0)
	case downgrade:
		s.Downgrade(0, 0)
		s.Upgrade(0, 0)
	case closeOpen:
		s.Close()
		s.Open()
	}
}

// runOnce runs the scripts once, replaying the stack's picks and
// extending it past them, and returns the run's outcome.
func (m *model) runOnce() string {
	m.runs++
	m.s = NewSeg(1, 8)
	data := make([]byte, 8)
	data[0], data[1] = 1, 1
	m.s.Install(0, data, ReadWrite, 0)
	m.arrive = make(chan struct{})
	m.abort, m.trace, m.vals, m.holders, m.tIn, m.tWait, m.retired = false, nil, nil, 0, false, false, map[*byte]bool{}
	m.procs = nil
	modelStep = m.at
	defer func() { modelStep = nil }()
	for i, sc := range m.scripts {
		p := &proc{id: i, sc: sc, run: make(chan struct{}), clock: make([]int, len(m.scripts))}
		m.procs = append(m.procs, p)
		m.cur = p
		go func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(errAbort); !ok {
						m.fail("%v #%d panicked: %v", p.sc, p.id, r)
					}
				}
				p.done = true
				m.arrive <- struct{}{}
			}()
			<-p.run
			m.play(p)
		}()
		p.run <- struct{}{}
		<-m.arrive
	}
	for depth := 0; m.bad == ""; depth++ {
		var en uint8
		for _, p := range m.procs {
			if m.enabled(p) {
				en |= 1 << p.id
			}
			if !p.done {
				m.dpor(p)
			}
		}
		if en == 0 {
			for _, p := range m.procs {
				if !p.done {
					m.fail("lost wake: %v #%d waits for word %#x, which nobody will change", p.sc, p.id, p.next.seen)
				}
			}
			break
		}
		if depth == len(m.stack) {
			n := node{enabled: en}
			for _, p := range m.procs {
				n.nexts = append(n.nexts, p.next)
			}
			if depth > 0 && !m.full {
				n.sleep = m.stack[depth-1].childSleep()
			}
			if en&^n.sleep == 0 {
				break // every order from here was run from an earlier node
			}
			n.pick = bits.TrailingZeros8(en &^ n.sleep)
			n.backtrack, n.tried = 1<<n.pick, 1<<n.pick
			if m.full {
				n.backtrack = en
			}
			m.stack = append(m.stack, n)
		}
		m.take(m.procs[m.stack[depth].pick])
	}
	m.abort = true
	for _, p := range m.procs {
		if !p.done {
			m.cur = p
			p.run <- struct{}{}
			<-m.arrive
		}
	}
	out := []string{m.value(), fmt.Sprintf("%#x", m.s.pages[0].word.raw.Load()&^(verOne-1))}
	for _, p := range m.procs {
		out = append(out, p.result)
	}
	return strings.Join(out, " ")
}

// childSleep is the sleep set of the node its pick leads to: the
// goroutines asleep or tried here whose step commutes with the pick's.
func (n *node) childSleep() uint8 {
	var sleep uint8
	for q := range n.nexts {
		if (n.sleep|n.tried)&^(1<<n.pick)&(1<<q) != 0 && !dependent(n.nexts[q], n.nexts[n.pick]) {
			sleep |= 1 << q
		}
	}
	return sleep
}

// next moves the stack to the next run: the deepest node with a pick
// still to try. It reports false when there is none.
func (m *model) next() bool {
	for len(m.stack) > 0 {
		n := &m.stack[len(m.stack)-1]
		if rest := n.backtrack &^ n.tried &^ n.sleep; rest != 0 {
			n.pick = bits.TrailingZeros8(rest)
			n.tried |= 1 << n.pick
			return true
		}
		m.stack = m.stack[:len(m.stack)-1]
	}
	return false
}

// explore runs every class of interleavings and returns the outcomes
// seen, or the first violation and the run's steps.
func (m *model) explore() (outcomes map[string]bool, bad string) {
	outcomes = map[string]bool{}
	for {
		out := m.runOnce()
		if m.bad != "" {
			var steps []string
			for _, t := range m.trace {
				steps = append(steps, fmt.Sprintf("%d:%d", t.p, t.m.op))
			}
			return outcomes, fmt.Sprintf("%v, run %d: %s\n\tsteps (goroutine:op): %s", m.scripts, m.runs, m.bad, strings.Join(steps, " "))
		}
		outcomes[out] = true
		if !m.next() {
			return outcomes, ""
		}
	}
}

// modelScenarios is every set of up to three goroutines with at most
// one transition, the site engine being one goroutine.
func modelScenarios() [][]script {
	accessors := []script{optRead, heldRead, write}
	var out [][]script
	var rec func(from int, cur []script)
	rec = func(from int, cur []script) {
		if len(cur) >= 1 {
			out = append(out, append([]script(nil), cur...))
			if len(cur) < 3 {
				for _, t := range []script{invalidate, downgrade, closeOpen} {
					out = append(out, append(append([]script(nil), cur...), t))
				}
			}
		}
		if len(cur) == 3 {
			return
		}
		for i := from; i < len(accessors); i++ {
			rec(i, append(cur, accessors[i]))
		}
	}
	rec(0, nil)
	return out
}

// checkAllScenarios explores every scenario and returns the first
// violation, or "".
func checkAllScenarios(t *testing.T) string {
	t0 := time.Now()
	runs := 0
	for _, sc := range modelScenarios() {
		m := newModel(false, sc...)
		_, bad := m.explore()
		runs += m.runs
		if bad != "" {
			return bad
		}
	}
	t.Logf("%d scenarios, %d runs, %v", len(modelScenarios()), runs, time.Since(t0).Round(time.Millisecond))
	return ""
}

func TestWordModel(t *testing.T) {
	if bad := checkAllScenarios(t); bad != "" {
		t.Fatal(bad)
	}
}

// The reduction runs one interleaving of each class; on every scenario
// of two goroutines it must reach every outcome the full enumeration
// reaches.
func TestWordModelReductionMissesNothing(t *testing.T) {
	for _, sc := range modelScenarios() {
		if len(sc) != 2 {
			continue
		}
		full, bad := newModel(true, sc...).explore()
		if bad != "" {
			t.Fatal(bad)
		}
		m := newModel(false, sc...)
		reduced, _ := m.explore()
		for out := range full {
			if !reduced[out] {
				t.Errorf("%v: outcome %q reached by the full enumeration, not by the reduction", sc, out)
			}
		}
		t.Logf("%v: %d outcomes, %d runs reduced", sc, len(full), m.runs)
	}
}
