package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"mirage/internal/mmu"
	"mirage/internal/wire"
)

// streamSite is a mesh for site 0 that knows a site 1 it never dials,
// so a raw socket that opens with hello(1) is read as site 1's circuit.
// Delivered messages arrive on the returned channel.
func streamSite(tb testing.TB) (*TCPMesh, chan *wire.Msg) {
	tb.Helper()
	got := make(chan *wire.Msg, 256)
	m, err := NewTCPSite(0, "127.0.0.1:0", func(msg *wire.Msg) { got <- msg })
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { m.Close() })
	m.SetPeers([]string{m.Addr(), "127.0.0.1:1"})
	return m, got
}

// streamConn opens a stream into m: a socket dialed to m, or, with
// pipe, one end of a net.Pipe whose other end m serves as an accepted
// conn. A pipe has no descriptor, so its reader blocks in Read, as every
// reader does off unix.
func streamConn(tb testing.TB, m *TCPMesh, pipe bool) net.Conn {
	tb.Helper()
	if !pipe {
		c, err := net.Dial("tcp", m.Addr())
		if err != nil {
			tb.Fatal(err)
		}
		return c
	}
	c, served := net.Pipe()
	if !m.serveInbound(served) {
		tb.Fatal("mesh closed")
	}
	return c
}

// idleHeld is how many read buffers the reader of a conn like c holds
// between frames: none while it waits for readability, its chunk while
// it blocks in Read (a pipe, or any socket off unix).
func idleHeld(c net.Conn) int64 {
	if rawConn(c) != nil {
		return 0
	}
	return 1
}

// stream is a hello from site 1 and the frames of msgs, as a dialer
// writes them.
func stream(msgs []*wire.Msg) []byte {
	b := hello(1)
	for _, msg := range msgs {
		b = wire.AppendFrame(b, msg)
	}
	return b
}

// streamMsgs is a control frame, a page frame and a frame with a
// copyset: the three shapes the protocol sends.
func streamMsgs() []*wire.Msg {
	page := make([]byte, 512)
	for i := range page {
		page[i] = byte(i * 7)
	}
	return []*wire.Msg{
		{Kind: wire.KReadReq, Seg: 1, Page: 2, From: 1},
		{Kind: wire.KPageSend, Seg: 1, Page: 3, From: 1, Data: page},
		{Kind: wire.KInval, Seg: 1, Page: 4, From: 1, Readers: mmu.CopysetOf(0, 1, 9)},
	}
}

// maxFrameMsg is a message whose frame is exactly wire.MaxFrame bytes:
// a bitmap copyset over every site and MaxData bytes of data.
func maxFrameMsg(tb testing.TB) *wire.Msg {
	var cs mmu.Copyset
	for s := 7; s < mmu.MaxSites; s += 8 {
		cs = cs.Add(s)
	}
	data := make([]byte, wire.MaxData)
	for i := range data {
		data[i] = byte(i >> 8)
	}
	msg := &wire.Msg{Kind: wire.KPageSend, Seg: 1, Page: 5, From: 1, Readers: cs, Data: data}
	if n := msg.EncodedLen(); n != wire.MaxFrame {
		tb.Fatalf("frame of %d bytes, want wire.MaxFrame (%d)", n, wire.MaxFrame)
	}
	return msg
}

// writePieces writes b to c cut at each of cuts (ascending offsets),
// pausing after each piece so that the reader is likely to take it in
// a read of its own.
func writePieces(tb testing.TB, c net.Conn, b []byte, cuts []int) {
	tb.Helper()
	at := 0
	for _, cut := range append(cuts, len(b)) {
		cut = min(cut, len(b))
		if cut <= at {
			continue
		}
		if _, err := c.Write(b[at:cut]); err != nil {
			tb.Fatal(err)
		}
		at = cut
		time.Sleep(50 * time.Microsecond)
	}
}

// expect receives len(want) messages and checks each against want by
// its encoding, then waits for the mesh's readers to hold idle buffers.
func expect(tb testing.TB, m *TCPMesh, got chan *wire.Msg, want []*wire.Msg, idle int64) {
	tb.Helper()
	for i, w := range want {
		select {
		case g := <-got:
			if !bytes.Equal(wire.Encode(nil, g), wire.Encode(nil, w)) {
				tb.Fatalf("message %d: got %v, want %v", i, g, w)
			}
		case <-time.After(5 * time.Second):
			tb.Fatalf("message %d of %d never delivered", i, len(want))
		}
	}
	waitHeld(tb, m, idle)
}

// waitHeld waits for the read buffers m's readers hold to reach n.
func waitHeld(tb testing.TB, m *TCPMesh, n int64) {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.held.Load() != n {
		if time.Now().After(deadline) {
			tb.Fatalf("readers hold %d buffers, want %d", m.held.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPFramesSplitAcrossReads writes a raw stream into a mesh the
// way a kernel may hand it over: one byte at a time through the hello,
// a length prefix and a body, then several frames in one write, then a
// frame of wire.MaxFrame — longer than a read chunk — cut inside its
// prefix and across the chunk's size, with a short frame behind it in
// the same write. Every frame arrives whole and in order, and once the
// stream is quiet the reader holds no buffer. The same stream through
// a pipe checks the reader that blocks in Read, holding one chunk.
func TestTCPFramesSplitAcrossReads(t *testing.T) {
	for _, pipe := range []bool{false, true} {
		name := "socket"
		if pipe {
			name = "pipe"
		}
		t.Run(name, func(t *testing.T) { framesSplitAcrossReads(t, pipe) })
	}
}

func framesSplitAcrossReads(t *testing.T, pipe bool) {
	m, got := streamSite(t)
	c := streamConn(t, m, pipe)
	defer c.Close()
	idle := idleHeld(c)

	msgs := streamMsgs()
	b := stream(msgs)
	cuts := make([]int, len(b))
	for i := range cuts {
		cuts[i] = i + 1
	}
	writePieces(t, c, b, cuts)
	expect(t, m, got, msgs, idle)

	var burst []byte
	var many []*wire.Msg
	for i := 0; i < 20; i++ {
		msg := streamMsgs()[i%3]
		msg.Page = int32(100 + i)
		many = append(many, msg)
		burst = wire.AppendFrame(burst, msg)
	}
	if _, err := c.Write(burst); err != nil {
		t.Fatal(err)
	}
	expect(t, m, got, many, idle)

	big := []*wire.Msg{maxFrameMsg(t), streamMsgs()[0]}
	var b2 []byte
	for _, msg := range big {
		b2 = wire.AppendFrame(b2, msg)
	}
	writePieces(t, c, b2, []int{2, 1000, chunkSize - 10, chunkSize + 10, wire.MaxFrame + 1})
	expect(t, m, got, big, idle)
	c.Close()
	waitHeld(t, m, 0)
}

// FuzzTCPFrameStream writes the stream of TestTCPFramesSplitAcrossReads
// (hello, control, page and copyset frames) into a mesh in pieces
// whose lengths the fuzzer picks: each input byte is one piece's length
// less one, the rest of the stream follows in one write. The stream
// goes through a socket and through a pipe. Every frame must arrive
// whole and in order, and each reader must end up holding its idle
// buffers: none on the socket, its chunk on the pipe until it closes.
func FuzzTCPFrameStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 7, 1, 63, 255, 2})
	f.Add([]byte{8, 3, 200, 60})
	m, got := streamSite(f)
	msgs := streamMsgs()
	b := stream(msgs)
	f.Fuzz(func(t *testing.T, pieces []byte) {
		if len(pieces) > 32 {
			pieces = pieces[:32]
		}
		var cuts []int
		at := 0
		for _, p := range pieces {
			at += 1 + int(p)
			cuts = append(cuts, at)
		}
		for _, pipe := range []bool{false, true} {
			c := streamConn(t, m, pipe)
			writePieces(t, c, b, cuts)
			expect(t, m, got, msgs, idleHeld(c))
			c.Close()
			waitHeld(t, m, 0)
		}
	})
}

// TestTCPIdleCircuitHoldsNoBuffer pins what an idle circuit keeps:
// after traffic both ways, and after a 1 MiB burst of 64 KiB frames
// that outgrows a read chunk on the receiving side, the readers and
// writers of both sites hold no buffer (off unix, each reader its one
// chunk), and the sender stages nothing once the burst is delivered.
func TestTCPIdleCircuitHoldsNoBuffer(t *testing.T) {
	var c0, c1 collect
	m0, m1 := newTCPPair(t, c0.handler(), c1.handler())
	if err := m0.Send(1, &wire.Msg{Kind: wire.KReadReq, Seg: 1}); err != nil {
		t.Fatal(err)
	}
	c1.wait(t, 1)
	if err := m1.Send(0, &wire.Msg{Kind: wire.KPageSend, Seg: 1, Data: make([]byte, 4096)}); err != nil {
		t.Fatal(err)
	}
	c0.wait(t, 1)
	m0.mu.Lock()
	tc := m0.conns[1]
	m0.mu.Unlock()
	tc.mu.Lock()
	idle := idleHeld(tc.c)
	tc.mu.Unlock()
	waitHeld(t, m0, idle)
	waitHeld(t, m1, idle)

	page := make([]byte, wire.MaxData)
	const frames = 16 // 1 MiB of data
	for i := 0; i < frames; i++ {
		page[0] = byte(i)
		if err := m0.Send(1, &wire.Msg{Kind: wire.KPageSend, Seg: 2, Page: int32(i), Data: page}); err != nil {
			t.Fatal(err)
		}
	}
	for i, msg := range c1.wait(t, 1+frames)[1:] {
		if msg.Page != int32(i) || len(msg.Data) != wire.MaxData || msg.Data[0] != byte(i) {
			t.Fatalf("burst frame %d: %v", i, msg)
		}
	}
	// Every frame delivered was taken from staging before it was
	// written, so nothing can be staged now.
	tc.mu.Lock()
	staged := len(tc.out.b)
	tc.mu.Unlock()
	if staged != 0 {
		t.Fatalf("after the burst is delivered the circuit stages %d bytes", staged)
	}
	waitHeld(t, m0, idle)
	waitHeld(t, m1, idle)
}

// TestTCPShortWriteResendsFromFirstUnacceptedFrame cuts a batch of
// three frames wherever a short write may stop: the resend starts at
// the first frame the socket did not fully accept, so no frame is sent
// twice and none is lost.
func TestTCPShortWriteResendsFromFirstUnacceptedFrame(t *testing.T) {
	var batch []byte
	var starts []int
	for _, msg := range streamMsgs() {
		starts = append(starts, len(batch))
		batch = wire.AppendFrame(batch, msg)
	}
	second, third := starts[1], starts[2] // the second frame carries a page
	for _, tt := range []struct {
		name          string
		written, want int
	}{
		{"nothing accepted", 0, 0},
		{"inside the first length prefix", 2, 0},
		{"inside a length prefix", second + 3, second},
		{"inside a frame", second + 4 + 100, second},
		{"on a frame boundary", third, third},
		{"the whole batch", len(batch), len(batch)},
	} {
		if got := resendFrom(batch, tt.written); got != tt.want {
			t.Errorf("%s: %d bytes written, resend from %d, want %d", tt.name, tt.written, got, tt.want)
		}
	}
}

// TestTCPStagingAcrossChunkEdges streams control frames, 4 KiB pages
// and one frame longer than a chunk from one sender through a circuit
// whose socket is a pipe the test reads. A pipe write returns only once
// all of it is read, and each read returns the rest of one write, so
// the test holds the writer on one batch while it looks at the next and
// sees the batches one by one:
//   - the first frame goes out alone, and the frames behind it fill one
//     chunk until one does not fit, on which the sender waits;
//   - the over-size frame waits for an empty circuit and is staged
//     alone in a buffer of its own size, not a pooled chunk;
//   - every frame arrives once and in order, no batch is longer than a
//     chunk but the over-size frame's, and the circuit holds at most two
//     buffers while it writes and none once it is idle.
func TestTCPStagingAcrossChunkEdges(t *testing.T) {
	m, _ := streamSite(t)
	pr, pw := net.Pipe()
	defer pr.Close()
	m.mu.Lock()
	tc := m.newConn(1, pw)
	m.mu.Unlock()
	staged := func() (frames int, b []byte, own bool) {
		tc.mu.Lock()
		defer tc.mu.Unlock()
		return tc.frames, tc.out.b, tc.out.b != nil && tc.out.chunk == nil
	}
	waitStaged := func(what string, ok func(frames int, b []byte, own bool) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !ok(staged()) {
			if time.Now().After(deadline) {
				n, b, own := staged()
				t.Fatalf("never staged %s: %d frames in %d bytes, own buffer %v", what, n, len(b), own)
			}
			time.Sleep(time.Millisecond)
		}
	}

	page := make([]byte, 4096)
	next := func(i int) *wire.Msg {
		if i%2 == 1 {
			return &wire.Msg{Kind: wire.KPageSend, Seg: 1, Page: int32(i), From: 1, Data: page}
		}
		return &wire.Msg{Kind: wire.KReadReq, Seg: 1, Page: int32(i), From: 1}
	}
	msgs := []*wire.Msg{next(0)}
	fill := 0 // bytes of frames 1..k, the frames that fit in one chunk
	for {
		msg := next(len(msgs))
		msgs = append(msgs, msg)
		if fill+4+msg.EncodedLen() > chunkSize {
			break
		}
		fill += 4 + msg.EncodedLen()
	}
	k := len(msgs) - 2 // msgs[k+1] is the first frame that does not fit
	big := maxFrameMsg(t)
	big.Page = int32(len(msgs))
	msgs = append(msgs, big)
	for len(msgs) < k+40 {
		msgs = append(msgs, next(len(msgs)))
	}

	// The writer takes frame 0 and stays in its write; frames 1..k fit
	// in one staged chunk.
	if err := m.Send(1, msgs[0]); err != nil {
		t.Fatal(err)
	}
	waitStaged("nothing", func(n int, b []byte, _ bool) bool { return b == nil })
	for _, msg := range msgs[1 : k+1] {
		if err := m.Send(1, msg); err != nil {
			t.Fatal(err)
		}
	}
	if n, b, own := staged(); n != k || len(b) != fill || own || m.held.Load() != 2 {
		t.Fatalf("staged %d frames in %d bytes (own buffer %v), %d buffers held; want %d frames in %d bytes of a chunk, 2 held",
			n, len(b), own, m.held.Load(), k, fill)
	}
	var sent atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, msg := range msgs[k+1:] {
			if err := m.Send(1, msg); err != nil {
				t.Error(err)
				return
			}
			sent.Add(1)
		}
	}()
	defer func() { m.Close(); <-done }() // a failed check must not leave the sender blocked
	// What is checked is that nothing happens: no send may return while
	// the writer is held and the chunk is full, so give one a while.
	time.Sleep(20 * time.Millisecond)
	if n := sent.Load(); n != 0 {
		t.Fatalf("%d sends returned past a full chunk", n)
	}

	buf := make([]byte, 2*chunkSize)
	got := 0
	// batch reads one write and checks its frames against msgs.
	batch := func() (frames, size int) {
		t.Helper()
		n, err := pr.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if held := m.held.Load(); held > 2 {
			t.Fatalf("the circuit holds %d buffers while it writes", held)
		}
		for b := buf[:n]; len(b) > 0; frames++ {
			if len(b) < 4 || len(b) < 4+int(binary.BigEndian.Uint32(b)) {
				t.Fatalf("batch of %d bytes ends inside frame %d", n, got)
			}
			end := 4 + int(binary.BigEndian.Uint32(b))
			if !bytes.Equal(b[4:end], wire.Encode(nil, msgs[got])) {
				t.Fatalf("frame %d out of order or damaged", got)
			}
			b, got = b[end:], got+1
		}
		if n > chunkSize && frames != 1 {
			t.Fatalf("a batch of %d frames in %d bytes, past a chunk", frames, n)
		}
		return frames, n
	}
	if n, _ := batch(); n != 1 {
		t.Fatalf("first batch has %d frames, want 1", n)
	}
	waitStaged("the frame that did not fit", func(n int, b []byte, own bool) bool { return n == 1 && !own })
	if n, _ := batch(); n != k {
		t.Fatalf("second batch has %d frames, want the %d that fit in a chunk", n, k)
	}
	waitStaged("the over-size frame", func(n int, b []byte, own bool) bool { return own })
	if n, b, _ := staged(); n != 1 || len(b) != 4+wire.MaxFrame || cap(b) != len(b) || m.held.Load() != 2 {
		t.Fatalf("over-size frame staged with %d frames in %d of %d bytes, %d buffers held", n, len(b), cap(b), m.held.Load())
	}
	if n, _ := batch(); n != 1 {
		t.Fatalf("third batch has %d frames, want the one that did not fit", n)
	}
	if n, size := batch(); n != 1 || size != 4+wire.MaxFrame {
		t.Fatalf("fourth batch has %d frames in %d bytes, want the over-size frame alone", n, size)
	}
	for got < len(msgs) {
		batch()
	}
	<-done
	if _, b, _ := staged(); b != nil {
		t.Fatalf("the idle circuit stages %d bytes", len(b))
	}
	waitHeld(t, m, 0)
}
