package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

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

func TestTCPWriteFailureEvictsAndRedials(t *testing.T) {
	var c0, c1 collect
	m0, _ := newTCPPair(t, c0.handler(), c1.handler())
	if err := m0.Send(1, &wire.Msg{Kind: wire.KReadReq, Seg: 1}); err != nil {
		t.Fatal(err)
	}
	c1.wait(t, 1)

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
	var err error
	for i := 0; i < 20; i++ {
		// The first write after a peer close can land in the kernel
		// buffer; keep sending until the failure surfaces and the mesh
		// recovers.
		if err = m0.Send(1, &wire.Msg{Kind: wire.KReadReq, Seg: 2}); err != nil {
			t.Fatalf("send after redial: %v", err)
		}
		if m0.Errors().WriteErrors > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	e := m0.Errors()
	if e.WriteErrors == 0 || e.Redials == 0 {
		t.Fatalf("no eviction/redial recorded: %+v", e)
	}
	// The circuit works again end to end.
	if err := m0.Send(1, &wire.Msg{Kind: wire.KReadReq, Seg: 3}); err != nil {
		t.Fatal(err)
	}
	found := false
	for i := 0; i < 100 && !found; i++ {
		c1.mu.Lock()
		for _, m := range c1.msgs {
			if m.Seg == 3 {
				found = true
			}
		}
		c1.mu.Unlock()
		time.Sleep(10 * time.Millisecond)
	}
	if !found {
		t.Fatal("message after redial never delivered")
	}
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
	faults := make(chan error, 4)
	m0.OnError(func(err error) { faults <- err })

	// A garbage frame with a plausible length: decode error.
	c, err := net.Dial("tcp", m0.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte{0, 0, 0, 8, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4})
	<-faults
	c.Close()

	// An absurd length prefix: corrupt stream.
	c, err = net.Dial("tcp", m0.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte{0xff, 0xff, 0xff, 0xff})
	<-faults
	c.Close()

	e := m0.Errors()
	if e.DecodeErrors != 1 || e.CorruptStreams != 1 {
		t.Fatalf("errors = %+v, want 1 decode + 1 corrupt", e)
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
