package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"mirage/internal/sim"
	"mirage/internal/vaxmodel"
)

func newNet(t *testing.T, sites int) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.NewKernel()
	n := New(k, sites)
	return k, n
}

func TestShortMessageElapsed(t *testing.T) {
	k, n := newNet(t, 2)
	var at sim.Time
	n.Bind(0, func(m Message) {})
	n.Bind(1, func(m Message) { at = k.Now() })
	n.Send(Message{From: 0, To: 1, Size: 0, Payload: "hi"})
	k.Run()
	want := sim.Time(2 * vaxmodel.ShortSideElapsed)
	if at != want {
		t.Fatalf("short message delivered at %v, want %v", at, want)
	}
}

func TestShortRoundTripIs12point9ms(t *testing.T) {
	k, n := newNet(t, 2)
	var done sim.Time
	n.Bind(1, func(m Message) { n.Send(Message{From: 1, To: 0}) })
	n.Bind(0, func(m Message) { done = k.Now() })
	n.Send(Message{From: 0, To: 1})
	k.Run()
	rtt := done.Duration()
	if rtt < 12500*time.Microsecond || rtt > 13*time.Millisecond {
		t.Fatalf("RTT = %v, paper measured 12.9 ms", rtt)
	}
}

func TestPagePlusReplyIs21point5ms(t *testing.T) {
	k, n := newNet(t, 2)
	var done sim.Time
	n.Bind(1, func(m Message) { n.Send(Message{From: 1, To: 0}) })
	n.Bind(0, func(m Message) { done = k.Now() })
	n.Send(Message{From: 0, To: 1, Size: 1024})
	k.Run()
	e := done.Duration()
	if e < 21*time.Millisecond || e > 22*time.Millisecond {
		t.Fatalf("1KB+short = %v, paper measured 21.5 ms", e)
	}
}

func TestPerCircuitFIFO(t *testing.T) {
	k, n := newNet(t, 2)
	var got []int
	n.Bind(0, func(m Message) {})
	n.Bind(1, func(m Message) { got = append(got, m.Payload.(int)) })
	// Mix of sizes: a large message first must still arrive first.
	n.Send(Message{From: 0, To: 1, Size: 1024, Payload: 1})
	n.Send(Message{From: 0, To: 1, Size: 0, Payload: 2})
	n.Send(Message{From: 0, To: 1, Size: 1024, Payload: 3})
	k.Run()
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("delivery order = %v, want [1 2 3]", got)
		}
	}
}

func TestSenderSerialization(t *testing.T) {
	k, n := newNet(t, 3)
	arrivals := map[int]sim.Time{}
	n.Bind(0, func(m Message) {})
	n.Bind(1, func(m Message) { arrivals[m.Payload.(int)] = k.Now() })
	n.Bind(2, func(m Message) { arrivals[m.Payload.(int)] = k.Now() })
	n.Send(Message{From: 0, To: 1, Payload: 1})
	n.Send(Message{From: 0, To: 2, Payload: 2})
	k.Run()
	// First: tx [0,3.2], rx [3.2,6.4]. Second: tx [3.2,6.4], rx [6.4,9.6].
	if arrivals[1] != sim.Time(6400*time.Microsecond) {
		t.Fatalf("first arrival %v", arrivals[1])
	}
	if arrivals[2] != sim.Time(9600*time.Microsecond) {
		t.Fatalf("second arrival %v, want 9.6ms (tx serialized)", arrivals[2])
	}
}

func TestReceiverSerialization(t *testing.T) {
	k, n := newNet(t, 3)
	var arrivals []sim.Time
	n.Bind(1, func(m Message) {})
	n.Bind(2, func(m Message) {})
	n.Bind(0, func(m Message) { arrivals = append(arrivals, k.Now()) })
	// Two senders transmit simultaneously to site 0; receptions must
	// serialize on site 0's interface.
	n.Send(Message{From: 1, To: 0})
	n.Send(Message{From: 2, To: 0})
	k.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	if arrivals[0] != sim.Time(6400*time.Microsecond) {
		t.Fatalf("first %v", arrivals[0])
	}
	if arrivals[1] != sim.Time(9600*time.Microsecond) {
		t.Fatalf("second %v, want serialized rx", arrivals[1])
	}
}

func TestLoopbackIsFreeAndCounted(t *testing.T) {
	k, n := newNet(t, 2)
	var at sim.Time
	delivered := false
	n.Bind(0, func(m Message) { at, delivered = k.Now(), true })
	n.Bind(1, func(m Message) {})
	k.After(5*time.Millisecond, func() {
		n.Send(Message{From: 0, To: 0, Payload: "local"})
	})
	k.Run()
	if !delivered {
		t.Fatal("loopback not delivered")
	}
	if at != sim.Time(5*time.Millisecond) {
		t.Fatalf("loopback delivered at %v, want 5ms (no network charge)", at)
	}
	s := n.Stats()
	if s.Loopback != 1 || s.Sent != 0 || s.Delivered != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestStatsCounters(t *testing.T) {
	k, n := newNet(t, 2)
	n.Bind(0, func(m Message) {})
	n.Bind(1, func(m Message) {})
	n.Send(Message{From: 0, To: 1, Size: 1024})
	n.Send(Message{From: 0, To: 1, Size: 0})
	n.Send(Message{From: 1, To: 0, Size: 64})
	k.Run()
	s := n.Stats()
	if s.Sent != 3 || s.Delivered != 3 {
		t.Fatalf("sent/delivered = %d/%d", s.Sent, s.Delivered)
	}
	if s.LargeMsgs != 1 || s.ShortMsgs != 2 {
		t.Fatalf("large/short = %d/%d", s.LargeMsgs, s.ShortMsgs)
	}
	if s.Bytes != 1088 {
		t.Fatalf("bytes = %d", s.Bytes)
	}
}

func TestDelayHook(t *testing.T) {
	k, n := newNet(t, 2)
	n.Inject = func(m Message) Fault { return Fault{Delay: 100 * time.Millisecond} }
	var at sim.Time
	n.Bind(0, func(m Message) {})
	n.Bind(1, func(m Message) { at = k.Now() })
	n.Send(Message{From: 0, To: 1})
	k.Run()
	want := sim.Time(100*time.Millisecond + 2*vaxmodel.ShortSideElapsed)
	if at != want {
		t.Fatalf("delayed delivery at %v, want %v", at, want)
	}
}

func TestDoubleBindPanics(t *testing.T) {
	_, n := newNet(t, 1)
	n.Bind(0, func(Message) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double bind")
		}
	}()
	n.Bind(0, func(Message) {})
}

func TestSendOutOfRangePanics(t *testing.T) {
	_, n := newNet(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range site")
		}
	}()
	n.Send(Message{From: 0, To: 5})
}

func TestDeliverToUnboundPanics(t *testing.T) {
	k, n := newNet(t, 2)
	n.Bind(0, func(Message) {})
	n.Send(Message{From: 0, To: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic delivering to unbound site")
		}
	}()
	k.Run()
}

// Property: per-circuit FIFO holds for arbitrary message size sequences
// and interleaved circuits.
func TestQuickFIFOAllCircuits(t *testing.T) {
	f := func(sizes []uint16, toBits []bool) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		k := sim.NewKernel()
		n := New(k, 3)
		got := map[SiteID][]int{}
		for s := SiteID(0); s < 3; s++ {
			s := s
			n.Bind(s, func(m Message) { got[s] = append(got[s], m.Payload.(int)) })
		}
		want := map[SiteID][]int{}
		for i, sz := range sizes {
			to := SiteID(1)
			if i < len(toBits) && toBits[i] {
				to = 2
			}
			n.Send(Message{From: 0, To: to, Size: int(sz % 2048), Payload: i})
			want[to] = append(want[to], i)
		}
		k.Run()
		for s, w := range want {
			g := got[s]
			if len(g) != len(w) {
				return false
			}
			for i := range w {
				if g[i] != w[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
