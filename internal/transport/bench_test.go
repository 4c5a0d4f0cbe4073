package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"mirage/internal/wire"
)

// benchPair builds a two-site TCP mesh where site 1 counts deliveries.
func benchPair(b *testing.B, count *atomic.Int64) (*TCPMesh, *TCPMesh) {
	b.Helper()
	drop := func(m *wire.Msg) {}
	recv := func(m *wire.Msg) { count.Add(1) }
	m0, err := NewTCPSite(0, "127.0.0.1:0", drop)
	if err != nil {
		b.Fatal(err)
	}
	m1, err := NewTCPSite(1, "127.0.0.1:0", recv)
	if err != nil {
		m0.Close()
		b.Fatal(err)
	}
	addrs := []string{m0.Addr(), m1.Addr()}
	m0.SetPeers(addrs)
	m1.SetPeers(addrs)
	b.Cleanup(func() { m0.Close(); m1.Close() })
	return m0, m1
}

// waitCount spins until the receiver has seen n messages.
func waitCount(b *testing.B, count *atomic.Int64, n int64) {
	b.Helper()
	deadline := time.Now().Add(time.Minute)
	for count.Load() < n {
		if time.Now().After(deadline) {
			b.Fatalf("delivered %d of %d", count.Load(), n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// BenchmarkTCPMeshShort streams data-free control messages one way and
// reports sustained msgs/sec (the Table 3 "service time per message"
// analogue: the cost of one protocol message through the full stack).
func BenchmarkTCPMeshShort(b *testing.B) {
	var count atomic.Int64
	m0, _ := benchPair(b, &count)
	msg := &wire.Msg{Kind: wire.KReadReq, Seg: 1, Page: 2}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := m0.Send(1, msg); err != nil {
			b.Fatal(err)
		}
	}
	waitCount(b, &count, int64(b.N))
	el := time.Since(start).Seconds()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/el, "msgs/s")
}

// BenchmarkTCPMeshPages streams 512-byte page messages one way and
// reports throughput in msgs/sec and MB/s of page payload.
func BenchmarkTCPMeshPages(b *testing.B) {
	var count atomic.Int64
	m0, _ := benchPair(b, &count)
	data := make([]byte, 512)
	msg := &wire.Msg{Kind: wire.KPageSend, Seg: 1, Page: 2, Data: data}
	b.SetBytes(512)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := m0.Send(1, msg); err != nil {
			b.Fatal(err)
		}
	}
	waitCount(b, &count, int64(b.N))
	el := time.Since(start).Seconds()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/el, "msgs/s")
	b.ReportMetric(float64(b.N)*512/el/1e6, "MB/s")
}

// BenchmarkTCPMeshRoundTrip measures request/response latency: site 0
// sends a control message, site 1 replies, one cycle per op.
func BenchmarkTCPMeshRoundTrip(b *testing.B) {
	done := make(chan struct{}, 1)
	var m0, m1 *TCPMesh
	var err error
	m0, err = NewTCPSite(0, "127.0.0.1:0", func(m *wire.Msg) { done <- struct{}{} })
	if err != nil {
		b.Fatal(err)
	}
	m1, err = NewTCPSite(1, "127.0.0.1:0", func(m *wire.Msg) {
		m1.Send(0, &wire.Msg{Kind: wire.KInstalled, Seg: m.Seg})
	})
	if err != nil {
		m0.Close()
		b.Fatal(err)
	}
	addrs := []string{m0.Addr(), m1.Addr()}
	m0.SetPeers(addrs)
	m1.SetPeers(addrs)
	b.Cleanup(func() { m0.Close(); m1.Close() })
	req := &wire.Msg{Kind: wire.KReadReq, Seg: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m0.Send(1, req); err != nil {
			b.Fatal(err)
		}
		<-done
	}
}

// TestInprocSteadyStateAllocFreeWithoutObs gates the in-process
// delivery path: a send is one call of the receiver's handler and must
// stay allocation-free.
func TestInprocSteadyStateAllocFreeWithoutObs(t *testing.T) {
	var delivered atomic.Int64
	m := NewInprocMesh([]Handler{func(*wire.Msg) { delivered.Add(1) }})
	defer m.Close()
	p := m.Site(0)
	msg := &wire.Msg{Kind: wire.KInval, Seg: 1, Page: 2}

	const warm = 512
	for i := 0; i < warm; i++ {
		if err := p.Send(0, msg); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(time.Minute)
	for delivered.Load() < warm {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d", delivered.Load(), warm)
		}
		time.Sleep(50 * time.Microsecond)
	}

	if n := testing.AllocsPerRun(100, func() {
		if err := p.Send(0, msg); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("inproc send with obs disabled: %v allocs/op, want 0", n)
	}
}
