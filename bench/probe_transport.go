package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"mirage/internal/transport"
	"mirage/internal/wire"
)

// tcpPair is a two-site TCP mesh with the given delivery handlers.
func tcpPair(h0, h1 transport.Handler) (m0, m1 *transport.TCPMesh, err error) {
	if m0, err = transport.NewTCPSite(0, "127.0.0.1:0", h0); err != nil {
		return nil, nil, err
	}
	if m1, err = transport.NewTCPSite(1, "127.0.0.1:0", h1); err != nil {
		m0.Close()
		return nil, nil, err
	}
	addrs := []string{m0.Addr(), m1.Addr()}
	m0.SetPeers(addrs)
	m1.SetPeers(addrs)
	return m0, m1, nil
}

// pingPong times request/reply round trips: send delivers req to
// site 1, whose handler answers with a short message that signals
// done at site 0; one exchange per op.
func pingPong(per time.Duration, send func(to int, m *wire.Msg) error, done chan struct{}, req *wire.Msg) (float64, error) {
	var sendErr error
	ns := nsPerOp(per, func(n int) {
		for i := 0; i < n && sendErr == nil; i++ {
			if sendErr = send(1, req); sendErr == nil {
				<-done
			}
		}
	})
	return ns, sendErr
}

// stream sends n copies of msg one way and waits until all arrived.
func stream(m0 *transport.TCPMesh, count *atomic.Int64, msg *wire.Msg, n int) error {
	target := count.Load() + int64(n)
	for i := 0; i < n; i++ {
		if err := m0.Send(1, msg); err != nil {
			return err
		}
	}
	for deadline := time.Now().Add(time.Minute); count.Load() < target; {
		if time.Now().After(deadline) {
			return fmt.Errorf("delivered %d short of %d", target-count.Load(), n)
		}
		runtime.Gosched()
	}
	return nil
}

// transportProbes price a message through each mesh: round-trip time
// (what a fault waits for) and one-way throughput (what a loaded store
// is bounded by).
func transportProbes(per time.Duration, out map[string]float64) error {
	done := make(chan struct{}, 1)
	reply := &wire.Msg{Kind: wire.KInstalled, Seg: 7}
	short := &wire.Msg{Kind: wire.KReadReq, Seg: 7}
	page := pageMsg(4096)

	var inproc *transport.InprocMesh
	inproc = transport.NewInprocMesh([]transport.Handler{
		func(*wire.Msg) { done <- struct{}{} },
		func(*wire.Msg) { _ = inproc.Site(1).Send(0, reply) }, // fails only once the probe closed the mesh
	})
	ns, err := pingPong(per, inproc.Site(0).Send, done, short)
	inproc.Close()
	if err != nil {
		return fmt.Errorf("transport probe: inproc: %w", err)
	}
	out["transport.inproc_rtt_ns"] = ns

	var m0, m1 *transport.TCPMesh
	m0, m1, err = tcpPair(
		func(*wire.Msg) { done <- struct{}{} },
		func(*wire.Msg) { _ = m1.Send(0, reply) }) // as above
	if err != nil {
		return fmt.Errorf("transport probe: %w", err)
	}
	for name, req := range map[string]*wire.Msg{"transport.tcp_rtt_short_ns": short, "transport.tcp_rtt_page4096_ns": &page} {
		if out[name], err = pingPong(per, m0.Send, done, req); err != nil {
			break
		}
	}
	m0.Close()
	m1.Close()
	if err != nil {
		return fmt.Errorf("transport probe: tcp round trip: %w", err)
	}

	var count atomic.Int64
	m0, m1, err = tcpPair(func(*wire.Msg) {}, func(*wire.Msg) { count.Add(1) })
	if err != nil {
		return fmt.Errorf("transport probe: %w", err)
	}
	defer m0.Close()
	defer m1.Close()
	// One timed op is a burst of streamBurst messages, so the probe
	// measures a loaded circuit, not one message's latency.
	const streamBurst = 1024
	var streamErr error
	oneWay := func(msg *wire.Msg) func(n int) {
		return func(n int) {
			if err := stream(m0, &count, msg, n*streamBurst); err != nil {
				streamErr = err
			}
		}
	}
	out["transport.tcp_short_msgs_per_s"] = 1e9 * streamBurst / nsPerOp(per, oneWay(short))
	out["transport.tcp_page4096_mb_per_s"] = 4096 * streamBurst / nsPerOp(per, oneWay(&page)) * 1e9 / 1e6
	out["transport.tcp_allocs_per_msg"] = mallocsPerOp(20, oneWay(short)) / streamBurst
	if streamErr != nil {
		return fmt.Errorf("transport probe: tcp stream: %w", streamErr)
	}
	return nil
}
