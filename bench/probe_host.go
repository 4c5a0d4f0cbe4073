package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mirage/internal/mmu"
	"mirage/internal/wire"
)

// hostProbes calibrate the machine: none of them runs repo code, so
// two records' host rows say how far their other rows are comparable.
func hostProbes(per time.Duration, out map[string]float64) error {
	out["host.nproc"] = float64(runtime.NumCPU())

	src, dst := make([]byte, 1<<20), make([]byte, 1<<20)
	out["host.memcpy_gb_per_s"] = float64(len(src)) / nsPerOp(per, func(n int) {
		for i := 0; i < n; i++ {
			copy(dst, src)
		}
	})

	var ctr atomic.Int64
	out["host.atomic_add_ns"] = nsPerOp(per, func(n int) {
		for i := 0; i < n; i++ {
			ctr.Add(1)
		}
	})

	out["host.time_now_ns"] = nsPerOp(per, func(n int) {
		var t time.Time
		for i := 0; i < n; i++ {
			t = time.Now()
		}
		sink += uint64(t.Nanosecond())
	})

	out["host.chan_pingpong_ns"] = chanPingPong(per)
	out["host.cond_pingpong_ns"] = condPingPong(per)
	rtt, err := tcpLoopbackRTT(per)
	out["host.tcp_loopback_rtt_ns"] = rtt
	return err
}

// chanPingPong is a round trip between two goroutines over unbuffered
// channels: the floor under any actor call that waits for a reply.
func chanPingPong(per time.Duration) float64 {
	ping, pong := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range ping {
			pong <- struct{}{}
		}
	}()
	ns := nsPerOp(per, func(n int) {
		for i := 0; i < n; i++ {
			ping <- struct{}{}
			<-pong
		}
	})
	close(ping)
	<-done
	return ns
}

// condPingPong is the same round trip over a mutex and two condition
// variables, the primitive the node inbox and the in-process mesh use.
func condPingPong(per time.Duration) float64 {
	var mu sync.Mutex
	turn := 0 // 0: caller's, 1: echo's, 2: stop
	toEcho, toCaller := sync.NewCond(&mu), sync.NewCond(&mu)
	done := make(chan struct{})
	go func() {
		defer close(done)
		mu.Lock()
		defer mu.Unlock()
		for {
			for turn == 0 {
				toEcho.Wait()
			}
			if turn == 2 {
				return
			}
			turn = 0
			toCaller.Signal()
		}
	}()
	ns := nsPerOp(per, func(n int) {
		mu.Lock()
		for i := 0; i < n; i++ {
			turn = 1
			toEcho.Signal()
			for turn == 1 {
				toCaller.Wait()
			}
		}
		mu.Unlock()
	})
	mu.Lock()
	turn = 2
	toEcho.Signal()
	mu.Unlock()
	<-done
	return ns
}

// tcpLoopbackRTT is a one-byte ping-pong over a raw loopback socket:
// the floor under transport.tcp_rtt_short_ns.
func tcpLoopbackRTT(per time.Duration) (float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("host probe: %w", err)
	}
	defer l.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		var b [1]byte
		for {
			if _, err := c.Read(b[:]); err != nil {
				echoed <- nil // the caller closed its end
				return
			}
			if _, err := c.Write(b[:]); err != nil {
				echoed <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return 0, fmt.Errorf("host probe: %w", err)
	}
	var ioErr error
	ns := nsPerOp(per, func(n int) {
		var b [1]byte
		for i := 0; i < n && ioErr == nil; i++ {
			if _, ioErr = c.Write(b[:]); ioErr == nil {
				_, ioErr = c.Read(b[:])
			}
		}
	})
	c.Close()
	if err := <-echoed; err != nil && ioErr == nil {
		ioErr = err
	}
	if ioErr != nil {
		return 0, fmt.Errorf("host probe: loopback ping-pong: %w", ioErr)
	}
	return ns, nil
}

// mmuProbes price the page table and the copyset.
func mmuProbes(per time.Duration, out map[string]float64) error {
	seg := mmu.NewSeg(64, 512)
	for p := 0; p < 64; p++ {
		seg.Install(p, nil, mmu.ReadWrite, 0)
	}
	out["mmu.check_ns"] = nsPerOp(per, func(n int) {
		var f mmu.FaultType
		for i := 0; i < n; i++ {
			f += seg.Check(i&63, i&1 == 0)
		}
		sink += uint64(f)
	})
	for _, size := range []int{512, 4096} {
		s := mmu.NewSeg(1, size)
		data := make([]byte, size)
		out[fmt.Sprintf("mmu.install%d_ns", size)] = nsPerOp(per, func(n int) {
			for i := 0; i < n; i++ {
				s.Install(0, data, mmu.ReadOnly, time.Duration(i))
			}
		})
	}
	out["mmu.copyset_add_ns"] = nsPerOp(per, func(n int) {
		for i := 0; i < n; i += 4 {
			c := mmu.Copyset{}.Add(3).Add(1).Add(5).Add(2)
			sink += uint64(c.Count())
		}
	})
	five := mmu.CopysetOf(1, 2, 3, 4, 5)
	thousand := copyset1000()
	for name, c := range map[string]mmu.Copyset{"mmu.copyset_foreach5_ns": five, "mmu.copyset_foreach1000_ns": thousand} {
		c := c
		out[name] = nsPerOp(per, func(n int) {
			sum := 0
			for i := 0; i < n; i++ {
				c.ForEach(func(s int) { sum += s })
			}
			sink += uint64(sum)
		})
	}
	buf := make([]byte, 0, mmu.MaxCopysetWireLen)
	out["mmu.copyset_wire1000_ns"] = nsPerOp(per, func(n int) {
		for i := 0; i < n; i++ {
			buf = thousand.AppendWire(buf[:0])
		}
	})
	return nil
}

func copyset1000() mmu.Copyset {
	var c mmu.Copyset
	for s := 0; s < 1000; s++ {
		c = c.Add(s)
	}
	return c
}

// The codec probes use the message shapes of internal/wire's own
// benchmarks: a control message with a small copyset, a page in
// flight, and the scale path's 1000-reader invalidation.
func shortMsg() wire.Msg {
	return wire.Msg{Kind: wire.KInval, Mode: wire.Write, Seg: 3, Page: 17, From: 1, Req: 2,
		Readers: mmu.CopysetOf(0, 1, 3), Delta: 33 * time.Millisecond, Seq: 42}
}

func pageMsg(size int) wire.Msg {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	return wire.Msg{Kind: wire.KPageSend, Mode: wire.Read, Seg: 1, Page: 2, Delta: time.Second, Data: data}
}

// wireProbes price encode and decode of each message shape.
func wireProbes(per time.Duration, out map[string]float64) error {
	inval := shortMsg()
	inval.Readers = copyset1000()
	shapes := []struct {
		name string
		m    wire.Msg
	}{
		{"short", shortMsg()}, {"page512", pageMsg(512)}, {"page4096", pageMsg(4096)}, {"inval1000", inval},
	}
	buf := make([]byte, 0, wire.MaxFrame)
	for _, sh := range shapes {
		m := sh.m
		out["wire.encode_"+sh.name+"_ns"] = nsPerOp(per, func(n int) {
			for i := 0; i < n; i++ {
				buf = wire.Encode(buf[:0], &m)
			}
		})
		enc := wire.Encode(nil, &m)
		var decErr error
		out["wire.decode_"+sh.name+"_ns"] = nsPerOp(per, func(n int) {
			for i := 0; i < n; i++ {
				d, _, err := wire.Decode(enc)
				if err != nil {
					decErr = err
				}
				sink += uint64(d.Page)
			}
		})
		if decErr != nil {
			return fmt.Errorf("wire probe: decode %s: %w", sh.name, decErr)
		}
	}
	m := shortMsg()
	out["wire.allocs_per_roundtrip"] = mallocsPerOp(10000, func(n int) {
		for i := 0; i < n; i++ {
			buf = wire.Encode(buf[:0], &m)
			d, _, _ := wire.Decode(buf)
			sink += uint64(d.Page)
		}
	})
	return nil
}
