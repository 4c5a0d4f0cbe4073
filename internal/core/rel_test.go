package core

import (
	"testing"
	"time"

	"mirage/internal/mmu"
	"mirage/internal/wire"
)

// deniedReadCycle sets up the aborted read cycle both tests below share:
// site 1 is the writer, and its channel to the library (site 0) is cut,
// so the library gives up on the read cycle's invalidation although
// site 1 received it, downgraded itself and shipped site 2 its copy.
// The library denies site 2 and keeps its record: site 1 the writer.
// A copy that cycle shipped is one the record does not list, and once
// the library takes the page writable it must not be left at site 2.
// Site 1 is left with a read copy where the record names a writer.
func deniedReadCycle(t *testing.T, n *testNet, run func()) {
	t.Helper()
	n.newSeg(1, 0)
	n.acquire(1, 1, 0, true)
	n.settle()
	n.cut = map[[2]int]bool{{1, 0}: true}
	run()
	n.settle()
	n.cut, n.hold = nil, nil
	// Site 1, which the record still names the writer, holds a read
	// copy: its write must earn a grant, not an endless "already".
	e, done := n.engines[1], false
	var loop func()
	loop = func() {
		if done = e.CheckAccess(1, 0, true) == mmu.NoFault; !done {
			e.Fault(1, 0, true, 101, loop)
		}
	}
	loop()
	for start := n.k.Now(); !done; {
		if !n.k.Step() || n.k.Now().Sub(start) > 5*time.Second {
			t.Fatal("site 1's write was never granted")
		}
	}
	n.acquire(0, 1, 0, true)
	n.settle()
	n.checkSingleWriter(1, 0)
}

// The copy lands first: site 2 installs it, its KInstalled is lost
// with the cycle, and the denial that follows names the cycle.
func TestDeniedReadCycleDropsItsCopy(t *testing.T) {
	n := newTestNet(t, 3, Options{Reliability: &Reliability{}})
	deniedReadCycle(t, n, func() {
		n.hold = func(from, to int, m *wire.Msg) bool {
			if m.Kind == wire.KReadReq {
				n.cut[[2]int{2, 0}] = true // the request is out; the install report is not
			}
			return false
		}
		e := n.engines[2]
		e.Fault(1, 0, false, 102, func() {})
		for e.CheckAccess(1, 0, false) != 0 {
			if !n.k.Step() {
				t.Fatal("site 2 never got the copy")
			}
		}
	})
}

// The denial lands first: the copy, held back on its way from site 1,
// reaches site 2 after site 2's fault has failed.
func TestLateCopyOfDeniedReadCycleIsRefused(t *testing.T) {
	n := newTestNet(t, 3, Options{Reliability: &Reliability{}})
	var late *wire.Msg
	n.hold = func(from, to int, m *wire.Msg) bool {
		if from == 1 && to == 2 && m.Kind == wire.KPageSend {
			if late == nil {
				late = m
			}
			return true
		}
		return false
	}
	deniedReadCycle(t, n, func() {
		if err := n.try(2, 1, 0, false); err == nil {
			t.Fatal("site 2's read was granted, want it denied")
		}
		if late == nil {
			t.Fatal("site 1 shipped no copy")
		}
		n.hold = nil
		n.engines[2].Deliver(late)
	})
}
