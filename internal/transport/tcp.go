package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"mirage/internal/obs"
	"mirage/internal/wire"
)

// TCPMesh carries the Mirage wire protocol over real TCP sockets: one
// listener per site and one circuit per pair of sites, established
// lazily by whichever site sends first and kept open — the Locus
// virtual-circuit discipline (§7.1). A circuit carries both directions:
// the dialer opens the socket with a hello (a magic word and its site
// id) and reads it from then on, and the acceptor adopts the socket as
// its own circuit to that peer, so a reply travels back on the socket
// its request came in on and carries the kernel's ack for it. If both
// sites dial at once, each keeps sending on the socket it dialed and
// both sockets are read; a sender's traffic leaves its socket only by
// evict-and-redial. Frames are the wire binary encoding behind a
// 4-byte length prefix; TCP's ordering gives the per-sender FIFO the
// protocol assumes.
//
// Data path. Send appends the encoded frame straight into the peer
// circuit's staging buffer (wire.AppendFrame); a dedicated writer
// goroutine per circuit swaps the staged bytes out and pushes them
// with one contiguous write, so a burst of N protocol messages costs
// one syscall, not N write+flush pairs. The two staging buffers per
// circuit are recycled forever: the steady-state send path allocates
// nothing. TCP_NODELAY is set explicitly on every circuit:
// batching happens here, where message boundaries are known, never in
// the kernel where it would add delay. Inbound, each socket has one
// reader that reuses a single read buffer sized up to the max frame;
// decoded control messages borrow nothing from it, and page-carrying
// messages get their Data copied out (wire.Msg.CloneData) before the
// handler — which may retain the message indefinitely — sees them.
//
// The mesh is for sites within one OS (typically loopback): the
// control plane (segment naming) stays in-process, as noted in
// DESIGN.md; the data plane is genuinely on the wire.
type TCPMesh struct {
	addrs    []string
	handler  Handler
	site     int
	listener net.Listener

	mu      sync.Mutex
	conns   map[int]*tcpConn
	inbound map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup

	obs *obs.Obs // flush and fault metrics sink; nil when observability is off
}

// SetObs attaches an observability sink: each writer-goroutine batch
// flush is then counted (flush_batches / flush_frames / flush_bytes,
// attributed to the sending site) and sized into the flush histograms,
// and each transport fault the mesh absorbs is counted against this
// site (tcp_decode_errors, tcp_corrupt_streams, tcp_write_errors,
// tcp_redials). Install before traffic starts.
func (m *TCPMesh) SetObs(o *obs.Obs) {
	m.mu.Lock()
	m.obs = o
	m.mu.Unlock()
}

// maxQueuedBytes bounds one circuit's staging buffer. Senders that
// outrun the socket block in Send until the writer drains — the same
// backpressure a blocking write syscall used to provide, but applied
// per batch instead of per message. The bound also caps the circuit's
// memory at two staging buffers of roughly this size.
const maxQueuedBytes = 1 << 20

// tcpConn is a site's circuit to one peer: a staging buffer of encoded
// frames drained by a writer goroutine that owns the socket's sending
// side. The socket is one the writer dialed or one the peer dialed and
// this site adopted; either way a reader serves its other side.
// Senders encode under mu, appending to out; the writer swaps out/offs
// with the spare pair, so the two buffers ping-pong between the roles
// and the data path reaches steady state with zero allocation.
type tcpConn struct {
	m  *TCPMesh
	to int

	mu        sync.Mutex
	cond      *sync.Cond // signaled when the staging buffer becomes non-empty
	space     *sync.Cond // signaled when the writer frees staging space
	out       []byte     // staged length-prefixed frames awaiting write
	offs      []int      // start offset of each staged frame in out
	spareOut  []byte     // recycled staging buffer
	spareOffs []int
	closed    bool

	// c is the established socket, dialed or adopted. The writer
	// goroutine owns its sending side; tests fault it deliberately
	// (under mu) to exercise redial.
	c net.Conn
}

// NewTCPSite starts a listener for one site at addr (use "127.0.0.1:0"
// to pick a free port) and returns the mesh half for that site. After
// all sites are created, call SetPeers with every site's address (in
// site order) on each mesh.
func NewTCPSite(site int, addr string, h Handler) (*TCPMesh, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	m := &TCPMesh{
		site:     site,
		handler:  h,
		listener: l,
		conns:    make(map[int]*tcpConn),
		inbound:  make(map[net.Conn]struct{}),
	}
	m.wg.Add(1)
	go m.accept()
	return m, nil
}

// Addr returns the listener's address for distribution to peers.
func (m *TCPMesh) Addr() string { return m.listener.Addr().String() }

// count records one absorbed transport fault in the registry.
func (m *TCPMesh) count(c obs.Counter) {
	m.mu.Lock()
	o := m.obs
	m.mu.Unlock()
	o.Count(m.site, c)
}

// SetPeers supplies every site's listen address, indexed by site ID.
func (m *TCPMesh) SetPeers(addrs []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.addrs = append([]string(nil), addrs...)
}

func (m *TCPMesh) accept() {
	defer m.wg.Done()
	for {
		c, err := m.listener.Accept()
		if err != nil {
			return // listener closed
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			c.Close()
			return
		}
		m.inbound[c] = struct{}{}
		m.mu.Unlock()
		m.wg.Add(1)
		go m.serve(c, true)
	}
}

// helloMagic opens every dialed socket, followed by the dialer's site
// id: helloLen bytes that tell the acceptor whose circuit it is.
const (
	helloMagic = 0x4d697263 // "Mirc"
	helloLen   = 8
)

// hello is what a site writes on a socket it dialed before any frame.
func hello(site int) []byte {
	h := make([]byte, helloLen)
	binary.BigEndian.PutUint32(h[:4], helloMagic)
	binary.BigEndian.PutUint32(h[4:], uint32(site))
	return h
}

// adopt checks an accepted socket's hello and, if this site has no
// circuit to the dialer yet, makes the socket that circuit, so replies
// travel back on the socket their requests came in on. A simultaneous
// dial leaves the circuit this site already has in place: the socket
// is then only read. adopt reports false for a hello that is not one
// or names no peer of this site.
func (m *TCPMesh) adopt(h [helloLen]byte, c net.Conn) bool {
	peer := binary.BigEndian.Uint32(h[4:])
	m.mu.Lock()
	defer m.mu.Unlock()
	if binary.BigEndian.Uint32(h[:4]) != helloMagic || peer >= uint32(len(m.addrs)) || int(peer) == m.site {
		return false
	}
	if _, ok := m.conns[int(peer)]; !ok && !m.closed {
		noDelay(c)
		m.newConn(int(peer), c)
	}
	return true
}

// noDelay sets TCP_NODELAY. It is explicit, though it is Go's default:
// batching is done at the frame layer, the kernel must never sit on a
// flushed batch.
func noDelay(c net.Conn) {
	if t, ok := c.(*net.TCPConn); ok {
		t.SetNoDelay(true)
	}
}

// readBufSize is the bufio size on both sides of a circuit: big enough
// that a full page frame plus a batch of control frames drains in one
// kernel read.
const readBufSize = 64 * 1024

// serve reads frames from one socket and delivers them: an accepted one
// after its hello, or one this site dialed, on which the peer answers.
// One frame buffer is reused for the whole connection; wire.Decode
// aliases message Data into it, so data-carrying messages are cloned
// before the handler retains them. Control messages (the vast majority
// of protocol traffic) borrow nothing and allocate nothing here beyond
// the Msg itself. On exit the socket is closed, so a circuit whose peer
// hung up fails its next write and redials instead of writing into a
// dead socket.
func (m *TCPMesh) serve(c net.Conn, accepted bool) {
	defer m.wg.Done()
	defer func() {
		c.Close()
		m.mu.Lock()
		delete(m.inbound, c)
		m.mu.Unlock()
	}()
	r := bufio.NewReaderSize(c, readBufSize)
	if accepted {
		var h [helloLen]byte
		if _, err := io.ReadFull(r, h[:]); err != nil {
			return
		}
		if !m.adopt(h, c) {
			m.count(obs.CTCPCorruptStream)
			return
		}
	}
	var hdr [4]byte
	var buf []byte // reused frame buffer, grown on demand up to MaxFrame
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > wire.MaxFrame {
			// No legal frame is this long; the stream has lost sync and
			// cannot be resynchronized — drop the connection.
			m.count(obs.CTCPCorruptStream)
			return
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		frame := buf[:n]
		if _, err := io.ReadFull(r, frame); err != nil {
			return
		}
		msg, _, err := wire.Decode(frame)
		if err != nil {
			m.count(obs.CTCPDecodeError)
			return
		}
		if msg.Data != nil {
			// The handler owns the message from here on and the frame
			// buffer is about to be overwritten: un-alias the payload.
			msg.Data = msg.CloneData()
		}
		m.handler(&msg)
	}
}

// Send implements Transport. It encodes the message into the peer
// circuit's staging buffer and returns; the writer goroutine owns the
// socket, so Send blocks only when the circuit's staging bound is full
// (backpressure), never on the wire. Only structural problems (mesh
// closed, unknown peer, own site) surface here; socket faults are
// absorbed by the writer — it evicts the circuit, redials once, and
// counts it in the registry (the reliability layer, when enabled, owns
// retry pacing beyond that).
func (m *TCPMesh) Send(to int, msg *wire.Msg) error {
	tc, err := m.conn(to)
	if err != nil {
		return err
	}
	if !tc.enqueue(msg) {
		return errClosed
	}
	return nil
}

// conn returns the circuit record for a peer, creating it (and its
// writer goroutine) if absent. Dialing happens on the writer, off the
// sender's path.
func (m *TCPMesh) conn(to int) (*tcpConn, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errClosed
	}
	if c, ok := m.conns[to]; ok {
		return c, nil
	}
	if to < 0 || to >= len(m.addrs) || to == m.site {
		return nil, fmt.Errorf("transport: site %d has no circuit to site %d", m.site, to)
	}
	return m.newConn(to, nil), nil
}

// newConn records the circuit to peer `to` and starts its writer; c is
// an adopted socket, or nil for the writer to dial. m.mu is held.
func (m *TCPMesh) newConn(to int, c net.Conn) *tcpConn {
	tc := &tcpConn{m: m, to: to, c: c}
	tc.cond = sync.NewCond(&tc.mu)
	tc.space = sync.NewCond(&tc.mu)
	m.conns[to] = tc
	m.wg.Add(1)
	go tc.writeLoop()
	return tc
}

// enqueue encodes one message into the circuit's staging buffer,
// blocking while the buffer is at its byte bound. It reports false
// when the circuit is closed.
func (c *tcpConn) enqueue(msg *wire.Msg) bool {
	c.mu.Lock()
	for len(c.out) >= maxQueuedBytes && !c.closed {
		c.space.Wait()
	}
	if c.closed {
		c.mu.Unlock()
		return false
	}
	c.offs = append(c.offs, len(c.out))
	c.out = wire.AppendFrame(c.out, msg)
	if len(c.offs) == 1 {
		// 0 → non-empty transition: the writer may be waiting. While the
		// buffer stays non-empty the writer is awake (or already woken)
		// and will re-check before sleeping, so no further signal needed.
		c.cond.Signal()
	}
	c.mu.Unlock()
	return true
}

// shutdown wakes the writer for exit, releases blocked senders, and
// closes the socket out from under any blocked write.
func (c *tcpConn) shutdown() {
	c.mu.Lock()
	c.closed = true
	if c.c != nil {
		c.c.Close()
	}
	c.cond.Signal()
	c.space.Broadcast()
	c.mu.Unlock()
}

// writeLoop drains the staging buffer: all frames staged at wakeup go
// out as one contiguous write, so senders bursting protocol traffic
// pay one syscall per batch. On a write fault it evicts the socket and
// redials once, resending only the frames the dead socket had not
// fully accepted; if the fresh socket fails too, the batch is dropped
// and counted (retransmission is the reliability layer's job).
func (c *tcpConn) writeLoop() {
	defer c.m.wg.Done()
	defer func() {
		c.mu.Lock()
		if c.c != nil {
			c.c.Close()
		}
		c.out, c.offs = nil, nil
		c.mu.Unlock()
	}()
	c.m.mu.Lock()
	o := c.m.obs
	c.m.mu.Unlock()
	var batch []byte
	var offs []int
	for {
		c.mu.Lock()
		for len(c.out) == 0 && !c.closed {
			c.cond.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			return
		}
		batch, c.out = c.out, c.spareOut[:0]
		offs, c.offs = c.offs, c.spareOffs[:0]
		c.spareOut, c.spareOffs = nil, nil
		c.space.Broadcast()
		c.mu.Unlock()

		o.Count(c.m.site, obs.CFlushBatch)
		o.CountN(c.m.site, obs.CFlushFrame, int64(len(offs)))
		o.CountN(c.m.site, obs.CFlushByte, int64(len(batch)))
		o.Observe(obs.HFlushFrames, int64(len(offs)))
		o.Observe(obs.HFlushBytes, int64(len(batch)))

		rest := c.writeFrames(batch, offs, 0)
		if rest > 0 {
			// Evict the dead socket and retry the unsent tail once on a
			// fresh one; drop it if that fails as well.
			if c.redial() {
				rest = c.writeFrames(batch, offs, len(offs)-rest)
			}
			if rest > 0 {
				c.m.count(obs.CTCPWriteError) // the tail is dropped
			}
		}
		c.mu.Lock()
		if c.spareOut == nil {
			// Recycle the drained staging pair for the next swap.
			c.spareOut, c.spareOffs = batch[:0], offs[:0]
		}
		c.mu.Unlock()
	}
}

// writeFrames pushes the staged frames starting at frame index `from`
// with one contiguous write, dialing first if the circuit has no
// socket. It returns the number of frames (from the batch's tail) that
// were not fully accepted by the socket; 0 means complete success.
func (c *tcpConn) writeFrames(data []byte, offs []int, from int) (unsent int) {
	if from >= len(offs) {
		return 0
	}
	conn := c.socket()
	if conn == nil {
		return len(offs) - from
	}
	base := offs[from]
	n, err := conn.Write(data[base:])
	if err == nil {
		return 0
	}
	c.evict(conn)
	// Find the first frame the socket did not fully accept: everything
	// before it was handed to the kernel (and possibly delivered), so
	// resending those on a fresh circuit would duplicate them. The
	// partially accepted frame itself is safe to resend — the receiver
	// drops a connection that dies mid-frame without delivering it.
	written := base + n
	for i := from; i < len(offs); i++ {
		end := len(data)
		if i+1 < len(offs) {
			end = offs[i+1]
		}
		if end > written {
			return len(offs) - i
		}
	}
	return 0
}

// socket returns the circuit's established socket, dialing if needed.
// A dialed socket opens with the hello and gets a reader, since the
// peer will answer on it. A nil return means the peer is unreachable
// (counted).
func (c *tcpConn) socket() net.Conn {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	if c.c != nil {
		conn := c.c
		c.mu.Unlock()
		return conn
	}
	c.mu.Unlock()

	c.m.mu.Lock()
	addr := ""
	if c.to < len(c.m.addrs) {
		addr = c.m.addrs[c.to]
	}
	c.m.mu.Unlock()
	conn, err := net.Dial("tcp", addr)
	if err == nil {
		noDelay(conn)
		if _, err = conn.Write(hello(c.m.site)); err != nil {
			conn.Close()
		}
	}
	if err != nil {
		c.m.count(obs.CTCPWriteError)
		return nil
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil
	}
	c.c = conn
	c.m.wg.Add(1)
	go c.m.serve(conn, false)
	c.mu.Unlock()
	return conn
}

// evict drops the circuit's socket after a write fault and counts it.
func (c *tcpConn) evict(conn net.Conn) {
	c.mu.Lock()
	if c.c == conn {
		c.c = nil
	}
	c.mu.Unlock()
	conn.Close()
	c.m.count(obs.CTCPWriteError)
}

// redial re-establishes the circuit after an eviction: the peer may
// simply have restarted its listener, and a stale half-open socket
// must not wedge the pair forever.
func (c *tcpConn) redial() bool {
	if c.socket() == nil {
		return false
	}
	c.m.count(obs.CTCPRedial)
	return true
}

// Close shuts the listener and all connections.
func (m *TCPMesh) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	conns := m.conns
	m.conns = map[int]*tcpConn{}
	inbound := make([]net.Conn, 0, len(m.inbound))
	for c := range m.inbound {
		inbound = append(inbound, c)
	}
	m.mu.Unlock()
	m.listener.Close()
	for _, c := range conns {
		c.shutdown()
	}
	for _, c := range inbound {
		c.Close()
	}
	m.wg.Wait()
	return nil
}
