package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

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
// Data path. Both ends of a circuit keep one buffer rule, the Locus
// one: a circuit fills a network buffer per message and holds none
// between (§7.1). The buffer is a 64 KiB chunk borrowed from a
// package-wide pool, or, for a frame longer than a chunk, a buffer of
// that frame's own size. Send appends the encoded frame straight into
// the circuit's staged chunk (wire.AppendFrame), borrowing one if none
// is staged and waiting while its frame does not fit; a writer
// goroutine per circuit takes the staged chunk, pushes it with one
// contiguous write and hands it back, so a burst of N protocol
// messages costs one syscall, not N. TCP_NODELAY is set explicitly on
// every circuit: batching happens here, where message boundaries are
// known, never in the kernel where it would add delay. Each socket has
// one reader that waits for readability holding no buffer, then reads
// what the kernel has into a borrowed chunk — one borrow per
// readiness, not per frame — decodes every whole frame in place, and
// keeps the chunk only while a frame straddles two reads. So an idle
// circuit holds no buffer at either end. Off unix, where the mesh
// cannot issue the read itself, a reader blocks in Read holding its
// chunk instead, one 64 KiB buffer a socket. Decoded control messages
// borrow nothing from the chunk, and page-carrying messages get their
// Data copied out (wire.Msg.CloneData) before the handler — which may
// retain the message indefinitely — sees them.
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

	held atomic.Int64 // buffers this mesh's readers and writers hold: 0 on an idle mesh
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

// tcpConn is a site's circuit to one peer: a staged chunk of encoded
// frames drained by a writer goroutine that owns the socket's sending
// side. The socket is one the writer dialed or one the peer dialed and
// this site adopted; either way a reader serves its other side.
// Senders encode under mu, appending to out; the writer takes out
// whole and hands it back to the pool after the write, so a circuit
// holds at most one staged chunk and one being written, none when
// idle. A sender whose frame does not fit in the staged chunk waits
// for the writer to take it — the backpressure a blocking write
// syscall used to provide, applied per batch instead of per message.
type tcpConn struct {
	m  *TCPMesh
	to int

	mu     sync.Mutex
	cond   *sync.Cond // signaled when a frame is staged into an empty circuit
	space  *sync.Cond // signaled when the writer takes the staged chunk
	out    buffer     // staged length-prefixed frames awaiting write
	frames int        // frames in out
	closed bool

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
		if err != nil || !m.serveInbound(c) {
			return // listener closed
		}
	}
}

// serveInbound starts the reader of an accepted conn, which opens with
// its dialer's hello. It reports false, closing c, once the mesh is
// closed.
func (m *TCPMesh) serveInbound(c net.Conn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		c.Close()
		return false
	}
	m.inbound[c] = struct{}{}
	m.wg.Add(1)
	go m.serve(c, true)
	return true
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

// chunkSize is the size of the chunk a reader borrows for one read and
// a circuit stages frames into: big enough that a full page frame plus
// a batch of control frames drains in one kernel read or write.
const chunkSize = 64 * 1024

// chunks lends buffers to every mesh's readers and writers. A reader
// borrows a chunk when its socket turns readable and hands it back once
// no frame straddles the read; a circuit borrows one when a frame is
// staged into it empty, and its writer hands it back after the write.
// So an idle circuit holds none, and the pool's GC clearing frees what
// no socket is reading into or writing from. Unlike a pool of one
// buffer per frame in flight (DESIGN.md §8.2), the chunks out at once
// are at most one per socket being read and two per circuit writing,
// and each goes back within its read or write, so a collection rarely
// leaves the pool empty.
var chunks = sync.Pool{New: func() any { return new([chunkSize]byte) }}

// buffer is what either end of a circuit holds while it reads or
// stages: a chunk from the pool, or, for a frame longer than a chunk, a
// buffer of that frame's own size.
type buffer struct {
	b     []byte           // nil while nothing is held
	chunk *[chunkSize]byte // the pooled chunk under b, nil under a frame's own buffer
}

// borrow returns an empty buffer with room for n bytes: a pooled chunk,
// or one of its own size for n over a chunk.
func (m *TCPMesh) borrow(n int) buffer {
	m.held.Add(1)
	if n > chunkSize {
		return buffer{b: make([]byte, 0, n)}
	}
	c := chunks.Get().(*[chunkSize]byte)
	return buffer{b: c[:0], chunk: c}
}

// drop lets go of whatever b holds: a chunk goes back to the pool, a
// frame's own buffer to the collector.
func (m *TCPMesh) drop(b *buffer) {
	if b.b == nil {
		return
	}
	if b.chunk != nil {
		chunks.Put(b.chunk)
	}
	*b = buffer{}
	m.held.Add(-1)
}

// reader is the receiving side of one socket. Between reads it holds a
// buffer only while a frame straddles them.
type reader struct {
	m     *TCPMesh
	c     net.Conn
	fill  func(fd uintptr) bool // r.read, bound once: raw.Read takes it every readiness
	in    buffer                // unparsed bytes from in.b[0]
	hello bool                  // an accepted socket whose hello is still to come
	err   error                 // what ended the stream
}

// serve reads frames from one socket and delivers them: an accepted
// one after its hello, or one this site dialed, on which the peer
// answers. Each wait for readability holds no buffer; a readable
// socket's bytes go into a chunk borrowed from the pool, every whole
// frame in it is decoded in place, and data-carrying messages are
// cloned before the handler retains them. A conn whose descriptor the
// reader cannot read itself (any conn off unix) is read by blocking
// in c.Read instead, holding a chunk while it waits. Control messages
// (the vast majority of protocol traffic) borrow nothing and allocate
// nothing here beyond the Msg itself. On exit the socket is closed,
// so a circuit whose peer hung up fails its next write and redials
// instead of writing into a dead socket.
func (m *TCPMesh) serve(c net.Conn, accepted bool) {
	defer m.wg.Done()
	defer func() {
		c.Close()
		m.mu.Lock()
		delete(m.inbound, c)
		m.mu.Unlock()
	}()
	r := &reader{m: m, c: c, hello: accepted}
	defer m.drop(&r.in)
	if raw := rawConn(c); raw != nil {
		r.fill = r.read
		for raw.Read(r.fill) == nil && r.err == nil && r.deliver() {
		}
		return
	}
	for r.readConn() && r.deliver() && r.err == nil {
	}
}

// read is the raw-socket callback: one read(2) into the buffer the
// reader holds, borrowing a chunk first if it holds none. It reports
// false, so that raw.Read waits for readability, only when the kernel
// has nothing; a reader with no straddling frame then hands its chunk
// back before the wait.
func (r *reader) read(fd uintptr) bool {
	if r.in.b == nil {
		r.in = r.m.borrow(chunkSize)
	}
	b := r.in.b
	n, again, err := sysRead(fd, b[len(b):cap(b)])
	switch {
	case again:
		if len(b) == 0 {
			r.m.drop(&r.in)
		}
		return false
	case err != nil:
		r.err = err
	case n == 0:
		r.err = io.EOF
	default:
		r.in.b = b[:len(b)+n]
	}
	return true
}

// readConn is one blocking c.Read into the buffer the reader holds,
// borrowing a chunk first if it holds none. The reader holds that
// chunk while Read waits. It reports false when the stream ended with
// nothing read.
func (r *reader) readConn() bool {
	if r.in.b == nil {
		r.in = r.m.borrow(chunkSize)
	}
	b := r.in.b
	n, err := r.c.Read(b[len(b):cap(b)])
	r.in.b, r.err = b[:len(b)+n], err
	return n > 0 || err == nil
}

// deliver parses what the reader holds: the hello of an accepted
// socket, then every whole frame, each decoded in place and handed to
// the handler. The straddling tail, if any, moves to the front of a
// buffer that can take the rest of its frame; with no tail the chunk
// is kept for the next read attempt, which hands it back if the kernel
// has nothing. deliver reports false when the stream is corrupt.
func (r *reader) deliver() bool {
	b := r.in.b
	need := 0 // the length of the straddling tail's frame, prefix included
	for len(b) > 0 {
		if r.hello {
			if len(b) < helloLen {
				need = helloLen
				break
			}
			if !r.m.adopt([helloLen]byte(b), r.c) {
				r.m.count(obs.CTCPCorruptStream)
				return false
			}
			r.hello, b = false, b[helloLen:]
			continue
		}
		if len(b) < 4 {
			need = 4
			break
		}
		n := binary.BigEndian.Uint32(b)
		if n > wire.MaxFrame {
			// No legal frame is this long; the stream has lost sync and
			// cannot be resynchronized — drop the connection.
			r.m.count(obs.CTCPCorruptStream)
			return false
		}
		if len(b) < 4+int(n) {
			need = 4 + int(n)
			break
		}
		msg, _, err := wire.Decode(b[4 : 4+n])
		if err != nil {
			r.m.count(obs.CTCPDecodeError)
			return false
		}
		if msg.Data != nil {
			// The handler owns the message from here on and the read
			// buffer is about to be reused: un-alias the payload.
			msg.Data = msg.CloneData()
		}
		r.m.handler(&msg)
		b = b[4+n:]
	}
	switch {
	case len(b) == 0 && r.in.chunk == nil:
		r.m.drop(&r.in) // an oversized frame's own buffer, spent
	case need > cap(r.in.b):
		own := r.m.borrow(need)
		own.b = append(own.b, b...)
		r.m.drop(&r.in)
		r.in = own
	default:
		r.in.b = r.in.b[:copy(r.in.b[:cap(r.in.b)], b)]
	}
	return true
}

// Send implements Transport. It encodes the message into the peer
// circuit's staged chunk and returns; the writer goroutine owns the
// socket, so Send blocks only while its frame does not fit in the
// staged chunk (backpressure), never on the wire. Only structural
// problems (mesh closed, unknown peer, own site) surface here; socket
// faults are absorbed by the writer — it evicts the circuit, redials
// once, and counts it in the registry (the reliability layer, when
// enabled, owns retry pacing beyond that).
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

// enqueue encodes one message into the circuit's staged chunk,
// borrowing one if none is staged, and waiting while the frame does not
// fit in the one that is. It reports false when the circuit is closed.
func (c *tcpConn) enqueue(msg *wire.Msg) bool {
	n := 4 + msg.EncodedLen()
	c.mu.Lock()
	for c.out.b != nil && len(c.out.b)+n > cap(c.out.b) && !c.closed {
		c.space.Wait()
	}
	if c.closed {
		c.mu.Unlock()
		return false
	}
	if c.out.b == nil {
		// Nothing staged: the writer may be waiting. While a chunk stays
		// staged the writer is awake (or already woken) and will re-check
		// before sleeping, so no further signal is needed.
		c.out = c.m.borrow(n)
		c.cond.Signal()
	}
	c.out.b = wire.AppendFrame(c.out.b, msg)
	c.frames++
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

// writeLoop drains the circuit: it takes the staged chunk at wakeup and
// pushes it as one contiguous write, so senders bursting protocol
// traffic pay one syscall per batch, then hands the chunk back. On a
// write fault it evicts the socket and redials once, resending only the
// frames the dead socket had not fully accepted; if the fresh socket
// fails too, the batch is dropped and counted (retransmission is the
// reliability layer's job).
func (c *tcpConn) writeLoop() {
	defer c.m.wg.Done()
	defer func() {
		c.mu.Lock()
		if c.c != nil {
			c.c.Close()
		}
		c.m.drop(&c.out)
		c.mu.Unlock()
	}()
	c.m.mu.Lock()
	o := c.m.obs
	c.m.mu.Unlock()
	for {
		c.mu.Lock()
		for c.out.b == nil && !c.closed {
			c.cond.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			return
		}
		batch, frames := c.out, c.frames
		c.out, c.frames = buffer{}, 0
		c.space.Broadcast()
		c.mu.Unlock()

		o.Count(c.m.site, obs.CFlushBatch)
		o.CountN(c.m.site, obs.CFlushFrame, int64(frames))
		o.CountN(c.m.site, obs.CFlushByte, int64(len(batch.b)))
		o.Observe(obs.HFlushFrames, int64(frames))
		o.Observe(obs.HFlushBytes, int64(len(batch.b)))

		sent := c.writeFrom(batch.b, 0)
		if sent < len(batch.b) {
			// Evict the dead socket and retry the unsent tail once on a
			// fresh one; drop it if that fails as well.
			if c.redial() {
				sent = c.writeFrom(batch.b, sent)
			}
			if sent < len(batch.b) {
				c.m.count(obs.CTCPWriteError) // the tail is dropped
			}
		}
		c.m.drop(&batch)
	}
}

// writeFrom pushes the frames of batch from offset `from`, a frame
// boundary short of its end, with one contiguous write, dialing first
// if the circuit has no socket. It returns where the frames the socket
// did not fully accept begin: len(batch) means complete success.
func (c *tcpConn) writeFrom(batch []byte, from int) int {
	conn := c.socket()
	if conn == nil {
		return from
	}
	n, err := conn.Write(batch[from:])
	if err == nil {
		return len(batch)
	}
	c.evict(conn)
	return resendFrom(batch, from+n)
}

// resendFrom returns the offset of the first frame in batch that the
// socket did not fully accept when its first `written` bytes went out,
// walking the frames' own length prefixes. Everything before it was
// handed to the kernel (and possibly delivered), so resending those on
// a fresh circuit would duplicate them. The partially accepted frame
// itself is safe to resend — the receiver drops a connection that dies
// mid-frame without delivering it.
func resendFrom(batch []byte, written int) int {
	at := 0
	for at < len(batch) {
		end := at + 4 + int(binary.BigEndian.Uint32(batch[at:]))
		if end > written {
			break
		}
		at = end
	}
	return at
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
