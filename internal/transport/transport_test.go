package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mirage/internal/obs"
	"mirage/internal/wire"
)

// collect gathers delivered messages per site, thread-safely.
type collect struct {
	mu   sync.Mutex
	msgs []*wire.Msg
}

func (c *collect) handler() Handler {
	return func(m *wire.Msg) {
		c.mu.Lock()
		c.msgs = append(c.msgs, m)
		c.mu.Unlock()
	}
}

func (c *collect) wait(t *testing.T, n int) []*wire.Msg {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		if len(c.msgs) >= n {
			out := append([]*wire.Msg(nil), c.msgs...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %d messages", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestInprocDeliveryAndOrder(t *testing.T) {
	var c0, c1 collect
	mesh := NewInprocMesh([]Handler{c0.handler(), c1.handler()})
	defer mesh.Close()
	p0 := mesh.Site(0)
	for i := 0; i < 100; i++ {
		if err := p0.Send(1, &wire.Msg{Kind: wire.KReadReq, Page: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := c1.wait(t, 100)
	for i, m := range got {
		if m.Page != int32(i) {
			t.Fatalf("order broken at %d: page %d", i, m.Page)
		}
	}
}

func TestInprocLoopback(t *testing.T) {
	var c0 collect
	mesh := NewInprocMesh([]Handler{c0.handler()})
	defer mesh.Close()
	if err := mesh.Site(0).Send(0, &wire.Msg{Kind: wire.KBusy}); err != nil {
		t.Fatal(err)
	}
	got := c0.wait(t, 1)
	if got[0].Kind != wire.KBusy {
		t.Fatalf("kind = %v", got[0].Kind)
	}
}

func TestInprocOutOfRange(t *testing.T) {
	var c0 collect
	mesh := NewInprocMesh([]Handler{c0.handler()})
	defer mesh.Close()
	if err := mesh.Site(0).Send(3, &wire.Msg{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestInprocSendAfterClose(t *testing.T) {
	var c0 collect
	mesh := NewInprocMesh([]Handler{c0.handler()})
	mesh.Close()
	if err := mesh.Site(0).Send(0, &wire.Msg{Kind: wire.KBusy}); err == nil {
		t.Fatal("expected error after close")
	}
}

func newTCPPair(t *testing.T, h0, h1 Handler) (*TCPMesh, *TCPMesh) {
	t.Helper()
	m0, err := NewTCPSite(0, "127.0.0.1:0", h0)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewTCPSite(1, "127.0.0.1:0", h1)
	if err != nil {
		m0.Close()
		t.Fatal(err)
	}
	addrs := []string{m0.Addr(), m1.Addr()}
	m0.SetPeers(addrs)
	m1.SetPeers(addrs)
	t.Cleanup(func() { m0.Close(); m1.Close() })
	return m0, m1
}

func TestTCPDelivery(t *testing.T) {
	var c0, c1 collect
	m0, m1 := newTCPPair(t, c0.handler(), c1.handler())
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i * 3)
	}
	if err := m0.Send(1, &wire.Msg{Kind: wire.KPageSend, Seg: 4, Page: 9, Data: data}); err != nil {
		t.Fatal(err)
	}
	got := c1.wait(t, 1)
	if got[0].Seg != 4 || got[0].Page != 9 || len(got[0].Data) != 512 || got[0].Data[5] != 15 {
		t.Fatalf("got %+v", got[0])
	}
	// And back the other way.
	if err := m1.Send(0, &wire.Msg{Kind: wire.KInstalled, Seg: 4}); err != nil {
		t.Fatal(err)
	}
	back := c0.wait(t, 1)
	if back[0].Kind != wire.KInstalled {
		t.Fatalf("kind = %v", back[0].Kind)
	}
}

func TestTCPOrderUnderLoad(t *testing.T) {
	var c0, c1 collect
	m0, _ := newTCPPair(t, c0.handler(), c1.handler())
	const n = 500
	for i := 0; i < n; i++ {
		m := &wire.Msg{Kind: wire.KReadReq, Page: int32(i)}
		if i%3 == 0 {
			m.Kind = wire.KPageSend
			m.Data = make([]byte, 512)
		}
		if err := m0.Send(1, m); err != nil {
			t.Fatal(err)
		}
	}
	got := c1.wait(t, n)
	for i, m := range got {
		if m.Page != int32(i) {
			t.Fatalf("order broken at %d: page %d", i, m.Page)
		}
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	var c0 collect
	m0, err := NewTCPSite(0, "127.0.0.1:0", c0.handler())
	if err != nil {
		t.Fatal(err)
	}
	defer m0.Close()
	m0.SetPeers([]string{m0.Addr()})
	if err := m0.Send(5, &wire.Msg{}); err == nil {
		t.Fatal("expected error for unknown peer")
	}
	// A mesh has no circuit to its own site either: what a site tells
	// itself stays in the node and must not be dialled.
	if err := m0.Send(0, &wire.Msg{}); err == nil {
		t.Fatal("expected error for a send to the mesh's own site")
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	var c0, c1 collect
	m0, _ := newTCPPair(t, c0.handler(), c1.handler())
	m0.Close()
	if err := m0.Send(1, &wire.Msg{Kind: wire.KBusy}); err == nil {
		t.Fatal("expected error after close")
	}
}

func TestTCPConcurrentSenders(t *testing.T) {
	var c0, c1 collect
	m0, _ := newTCPPair(t, c0.handler(), c1.handler())
	var wg sync.WaitGroup
	const per = 50
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := m0.Send(1, &wire.Msg{Kind: wire.KReadReq, Seg: int32(g), Page: int32(i)}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	got := c1.wait(t, 4*per)
	// Per-goroutine order is not guaranteed across goroutines, but
	// every message must arrive intact exactly once.
	seen := map[string]bool{}
	for _, m := range got {
		k := fmt.Sprintf("%d/%d", m.Seg, m.Page)
		if seen[k] {
			t.Fatalf("duplicate %s", k)
		}
		seen[k] = true
	}
	if len(seen) != 4*per {
		t.Fatalf("got %d unique of %d", len(seen), 4*per)
	}
}

// waitCounted waits for site's entry of counter c in reg to reach n.
func waitCounted(t *testing.T, reg *obs.Registry, site int, c obs.Counter, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Get(site, c) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%v never counted: %v", c, reg.Snapshot().Totals)
		}
		time.Sleep(time.Millisecond)
	}
}

// delivered reports whether c has a message for which match is true.
func (c *collect) delivered(match func(*wire.Msg) bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.msgs {
		if match(m) {
			return true
		}
	}
	return false
}

func TestTCPWriteFailureEvictsAndRedials(t *testing.T) {
	var c0, c1 collect
	m0, m1 := newTCPPair(t, c0.handler(), c1.handler())
	reg := obs.NewRegistry()
	o := &obs.Obs{Metrics: reg}
	m0.SetObs(o)
	m1.SetObs(o)
	if err := m0.Send(1, &wire.Msg{Kind: wire.KReadReq, Seg: 1}); err != nil {
		t.Fatal(err)
	}
	c1.wait(t, 1)
	// Site 1 adopted the socket site 0 dialed: it is site 1's circuit
	// back to site 0 as well.
	if a, b := socketOf(m0, 1), socketOf(m1, 0); a == nil || b == nil || a.LocalAddr().String() != b.RemoteAddr().String() {
		t.Fatalf("site 1 did not adopt site 0's socket: %v, %v", a, b)
	}

	// Break the cached circuit behind the mesh's back: the next write
	// must fail the stale socket, evict it, redial, and still deliver.
	m0.mu.Lock()
	tc := m0.conns[1]
	m0.mu.Unlock()
	tc.mu.Lock()
	if tc.c != nil {
		tc.c.Close()
	}
	tc.mu.Unlock()
	for i := 0; i < 20 && reg.Get(0, obs.CTCPWriteError) == 0; i++ {
		// The first write after a peer close can land in the kernel
		// buffer; keep sending until the failure surfaces and the mesh
		// recovers.
		if err := m0.Send(1, &wire.Msg{Kind: wire.KReadReq, Seg: 2}); err != nil {
			t.Fatalf("send after redial: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitCounted(t, reg, 0, obs.CTCPWriteError, 1)
	waitCounted(t, reg, 0, obs.CTCPRedial, 1)
	// The circuit works again end to end.
	if err := m0.Send(1, &wire.Msg{Kind: wire.KReadReq, Seg: 3}); err != nil {
		t.Fatal(err)
	}
	found := false
	for i := 0; i < 100 && !found; i++ {
		found = c1.delivered(func(m *wire.Msg) bool { return m.Seg == 3 })
		time.Sleep(10 * time.Millisecond)
	}
	if !found {
		t.Fatal("message after redial never delivered")
	}

	// The acceptor's circuit was the broken socket too. Its replies
	// still arrive: its reader saw the hang-up, so its next write fails
	// and it redials on its own. What it wrote into the dead socket
	// before that is lost, so keep replying until one arrives.
	found = false
	for i := 0; i < 100 && !found; i++ {
		if err := m1.Send(0, &wire.Msg{Kind: wire.KInstalled, Seg: 100}); err != nil {
			t.Fatalf("reply after break: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
		found = c0.delivered(func(m *wire.Msg) bool { return m.Seg == 100 })
	}
	if !found {
		t.Fatal("acceptor's reply after the break never delivered")
	}
	if r := reg.Get(1, obs.CTCPRedial); r < 1 {
		t.Fatalf("acceptor's reply arrived with tcp_redials %d at site 1, want its own redial", r)
	}
}

// socketOf returns m's circuit socket to peer, nil if it has none.
func socketOf(m *TCPMesh, peer int) net.Conn {
	m.mu.Lock()
	tc := m.conns[peer]
	m.mu.Unlock()
	if tc == nil {
		return nil
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.c
}

// accepted counts the sockets the meshes accepted and still read: one
// per TCP connection among them.
func accepted(meshes ...*TCPMesh) int {
	n := 0
	for _, m := range meshes {
		m.mu.Lock()
		n += len(m.inbound)
		m.mu.Unlock()
	}
	return n
}

// TestOneCircuitPerPair has every ordered pair of three sites do a
// request and a reply, one after another: the first request of a pair
// dials, the peer adopts the socket, and every later message of the
// pair either way rides it. Three sites, three sockets.
func TestOneCircuitPerPair(t *testing.T) {
	const n = 3
	meshes := make([]*TCPMesh, n)
	replies := make([]chan *wire.Msg, n)
	addrs := make([]string, n)
	for i := range meshes {
		replies[i] = make(chan *wire.Msg, n)
		m, err := NewTCPSite(i, "127.0.0.1:0", func(msg *wire.Msg) {
			if msg.Kind == wire.KReadReq {
				// Seg names the requester; the reply names the replier.
				meshes[i].Send(int(msg.Seg), &wire.Msg{Kind: wire.KInstalled, Seg: int32(i)})
				return
			}
			replies[i] <- msg
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		meshes[i], addrs[i] = m, m.Addr()
	}
	for _, m := range meshes {
		m.SetPeers(addrs)
	}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			if err := meshes[from].Send(to, &wire.Msg{Kind: wire.KReadReq, Seg: int32(from)}); err != nil {
				t.Fatal(err)
			}
			select {
			case r := <-replies[from]:
				if int(r.Seg) != to {
					t.Fatalf("site %d asked %d, reply from %d", from, to, r.Seg)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("site %d: no reply from %d", from, to)
			}
		}
	}
	if got := accepted(meshes...); got != n {
		t.Fatalf("%d sockets among %d sites, want %d", got, n, n)
	}
	// Each pair's two circuits are the two ends of one socket, so each
	// reply went back on the socket its request used.
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			sa, sb := socketOf(meshes[a], b), socketOf(meshes[b], a)
			if sa == nil || sb == nil {
				t.Fatalf("pair %d-%d: missing circuit (%v, %v)", a, b, sa, sb)
			}
			if sa.LocalAddr().String() != sb.RemoteAddr().String() || sa.RemoteAddr().String() != sb.LocalAddr().String() {
				t.Fatalf("pair %d-%d: two sockets, %v→%v and %v→%v", a, b,
					sa.LocalAddr(), sa.RemoteAddr(), sb.LocalAddr(), sb.RemoteAddr())
			}
		}
	}
}

// TestSimultaneousDialKeepsSenderOrder has both sites of a pair send
// first, from several goroutines released at once, so both may dial
// before either hello arrives. Each sender's messages must reach the
// other site's handler once each and in order, and the pair must end
// with at most two sockets. Run it under -race.
func TestSimultaneousDialKeepsSenderOrder(t *testing.T) {
	const rounds, senders, per = 10, 4, 200
	both := 0
	for r := 0; r < rounds; r++ {
		checks := []*orderCheck{{next: map[int32]int32{}}, {next: map[int32]int32{}}}
		m0, m1 := newTCPPair(t, checks[0].handler(), checks[1].handler())
		meshes := []*TCPMesh{m0, m1}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for site := 0; site < 2; site++ {
			for g := 0; g < senders; g++ {
				wg.Add(1)
				go func(site, g int) {
					defer wg.Done()
					<-start
					for i := 0; i < per; i++ {
						msg := &wire.Msg{Kind: wire.KReadReq, Seg: int32(site*senders + g), Page: int32(i)}
						if err := meshes[site].Send(1-site, msg); err != nil {
							t.Errorf("site %d sender %d: %v", site, g, err)
							return
						}
					}
				}(site, g)
			}
		}
		close(start)
		wg.Wait()
		for _, check := range checks {
			deadline := time.Now().Add(10 * time.Second)
			for {
				check.mu.Lock()
				got, bad := check.got, check.bad
				check.mu.Unlock()
				if len(bad) > 0 {
					t.Fatalf("round %d: order broken: %v", r, bad[0])
				}
				if got == senders*per {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("round %d: delivered %d of %d", r, got, senders*per)
				}
				time.Sleep(time.Millisecond)
			}
		}
		switch n := accepted(m0, m1); {
		case n > 2:
			t.Fatalf("round %d: %d sockets for one pair, want at most 2", r, n)
		case n == 2:
			both++
		}
		m0.Close()
		m1.Close()
	}
	t.Logf("both sites dialed in %d of %d rounds", both, rounds)
}

func TestTCPRetainedDataSurvivesBufferReuse(t *testing.T) {
	// The receive path reuses one frame buffer per connection and
	// wire.Decode aliases Data into it. The mesh must un-alias before
	// delivery: a handler that retains a page message (as the engine's
	// reliability layer does) must see its payload intact after later
	// frames overwrite the read buffer.
	var c0, c1 collect
	m0, _ := newTCPPair(t, c0.handler(), c1.handler())
	page := make([]byte, 512)
	for i := range page {
		page[i] = byte(i)
	}
	if err := m0.Send(1, &wire.Msg{Kind: wire.KPageSend, Page: 1, Data: page}); err != nil {
		t.Fatal(err)
	}
	got := c1.wait(t, 1)
	retained := got[0]
	// Flood the same connection with frames carrying different bytes so
	// the reused read buffer is overwritten many times.
	junk := make([]byte, 512)
	for i := range junk {
		junk[i] = 0xAA
	}
	for i := 0; i < 200; i++ {
		if err := m0.Send(1, &wire.Msg{Kind: wire.KPageSend, Page: 2, Data: junk}); err != nil {
			t.Fatal(err)
		}
	}
	c1.wait(t, 201)
	for i, b := range retained.Data {
		if b != byte(i) {
			t.Fatalf("retained Data corrupted at %d: got %#x, want %#x (read buffer aliasing)", i, b, byte(i))
		}
	}
}

func TestTCPInboundCorruptionCounted(t *testing.T) {
	var c0 collect
	m0, err := NewTCPSite(0, "127.0.0.1:0", c0.handler())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m0.Close() })
	// A hello must name a peer the mesh knows; site 1 is never dialed.
	m0.SetPeers([]string{m0.Addr(), "127.0.0.1:1"})
	reg := obs.NewRegistry()
	m0.SetObs(&obs.Obs{Metrics: reg})

	// A garbage frame with a plausible length: decode error.
	c, err := net.Dial("tcp", m0.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.Write(append(hello(1), 0, 0, 0, 8, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4))
	waitCounted(t, reg, 0, obs.CTCPDecodeError, 1)
	c.Close()

	// An absurd length prefix: corrupt stream.
	c, err = net.Dial("tcp", m0.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.Write(append(hello(1), 0xff, 0xff, 0xff, 0xff))
	waitCounted(t, reg, 0, obs.CTCPCorruptStream, 1)
	c.Close()

	if d, cs := reg.Get(0, obs.CTCPDecodeError), reg.Get(0, obs.CTCPCorruptStream); d != 1 || cs != 1 {
		t.Fatalf("tcp_decode_errors %d, tcp_corrupt_streams %d, want 1 and 1", d, cs)
	}
}

// TestTCPBadHelloDropped opens sockets to a mesh whose first 8 bytes
// are not a hello from one of its peers: each is dropped and counted
// once as a corrupt stream, and the mesh keeps delivering on its
// circuits.
func TestTCPBadHelloDropped(t *testing.T) {
	var c0, c1 collect
	m0, m1 := newTCPPair(t, c0.handler(), c1.handler())
	reg := obs.NewRegistry()
	m0.SetObs(&obs.Obs{Metrics: reg})
	if err := m1.Send(0, &wire.Msg{Kind: wire.KReadReq, Seg: 1}); err != nil {
		t.Fatal(err)
	}
	c0.wait(t, 1)

	for i, open := range [][]byte{
		{0, 0, 0, 4, 1, 2, 3, 4}, // a plausible frame, no hello
		hello(0),                 // the mesh's own site
		hello(2),                 // a site it does not know
	} {
		c, err := net.Dial("tcp", m0.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c.Write(open)
		waitCounted(t, reg, 0, obs.CTCPCorruptStream, int64(i+1))
		// The mesh hung up on it.
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Fatalf("opening %d: socket still open", i)
		}
		c.Close()
	}
	if cs, d := reg.Get(0, obs.CTCPCorruptStream), reg.Get(0, obs.CTCPDecodeError); cs != 3 || d != 0 {
		t.Fatalf("tcp_corrupt_streams %d, tcp_decode_errors %d, want 3 and 0", cs, d)
	}
	if err := m1.Send(0, &wire.Msg{Kind: wire.KReadReq, Seg: 2}); err != nil {
		t.Fatal(err)
	}
	if err := m0.Send(1, &wire.Msg{Kind: wire.KInstalled, Seg: 3}); err != nil {
		t.Fatal(err)
	}
	if got := c0.wait(t, 2); got[1].Seg != 2 {
		t.Fatalf("site 0 got %+v", got[1])
	}
	if got := c1.wait(t, 1); got[0].Seg != 3 {
		t.Fatalf("site 1 got %+v", got[0])
	}
}

// orderCheck is a handler that meets the Handler contract — safe from
// several goroutines at once, never blocking — and checks what a fabric
// owes in return: each sender's messages (Seg names the sender, Page
// counts up) arrive in the order sent.
type orderCheck struct {
	mu   sync.Mutex
	next map[int32]int32
	bad  []string
	got  int
}

func (o *orderCheck) handler() Handler {
	return func(m *wire.Msg) {
		o.mu.Lock()
		if want := o.next[m.Seg]; m.Page != want {
			o.bad = append(o.bad, fmt.Sprintf("sender %d: got %d, want %d", m.Seg, m.Page, want))
		}
		o.next[m.Seg] = m.Page + 1
		o.got++
		o.mu.Unlock()
	}
}

// TestPerSenderFIFOConcurrentSenders drives both meshes the way the
// live cluster does — several goroutines sending into one site at the
// same time, so the handler is entered concurrently — and checks
// per-sender order at the handler. Run it under -race.
func TestPerSenderFIFOConcurrentSenders(t *testing.T) {
	const senders, per = 6, 400
	drop := func(*wire.Msg) {}
	run := func(t *testing.T, check *orderCheck, port func(sender int) Transport) {
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				tr := port(s)
				for i := 0; i < per; i++ {
					if err := tr.Send(2, &wire.Msg{Kind: wire.KReadReq, Seg: int32(s), Page: int32(i)}); err != nil {
						t.Errorf("sender %d: %v", s, err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		deadline := time.Now().Add(10 * time.Second)
		for {
			check.mu.Lock()
			got, bad := check.got, check.bad
			check.mu.Unlock()
			if len(bad) > 0 {
				t.Fatalf("order broken: %v", bad[0])
			}
			if got == senders*per {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("delivered %d of %d", got, senders*per)
			}
			time.Sleep(time.Millisecond)
		}
	}
	t.Run("inproc", func(t *testing.T) {
		check := &orderCheck{next: map[int32]int32{}}
		mesh := NewInprocMesh([]Handler{drop, drop, check.handler()})
		defer mesh.Close()
		run(t, check, func(s int) Transport { return mesh.Site(s % 2) })
	})
	t.Run("tcp", func(t *testing.T) {
		// Two sending meshes: site 2 reads them on two connections, so
		// its handler runs on two reader goroutines at once.
		check := &orderCheck{next: map[int32]int32{}}
		var meshes []*TCPMesh
		var addrs []string
		for i, h := range []Handler{drop, drop, check.handler()} {
			m, err := NewTCPSite(i, "127.0.0.1:0", h)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			meshes = append(meshes, m)
			addrs = append(addrs, m.Addr())
		}
		for _, m := range meshes {
			m.SetPeers(addrs)
		}
		run(t, check, func(s int) Transport { return meshes[s%2] })
	})
}
