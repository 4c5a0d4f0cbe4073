// Package wire defines the Mirage DSM protocol messages and a compact
// binary encoding for them.
//
// The same message set drives both execution modes: in the simulator
// and the in-process transport, Msg values travel by reference; the
// TCP transport marshals them with the codec in this package. The
// message kinds correspond to the protocol events of paper §6.1
// (requests to the library, invalidation traffic between the library
// and the clock site, direct page delivery from the storing site to
// the requester) plus the bookkeeping the paper leaves implicit
// (completion notifications that let the library serialize per-page
// grant cycles, and release traffic for detach).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"mirage/internal/mmu"
)

// Kind discriminates protocol messages.
type Kind uint8

const (
	// KInvalid is the zero Kind; it never appears on the wire.
	KInvalid Kind = iota

	// KReadReq asks the library for a readable copy (requester -> library).
	KReadReq
	// KWriteReq asks the library for a writable copy (requester -> library).
	KWriteReq
	// KAddReader tells the clock site to add readers and ship them
	// copies; no clock check, no invalidation (library -> clock,
	// Table 1 row Readers/Readers). Readers holds the batch.
	KAddReader
	// KInval orders the clock site to run an invalidation cycle after
	// the Δ check (library -> clock). Mode says what the new holders
	// get; Req is the new writer (write mode); Readers is the batch of
	// new readers (read mode); Upgrade marks a new writer that already
	// holds a read copy; Delta is the window to install with the grant.
	KInval
	// KBusy reports an unexpired window; Remaining says how long the
	// library must wait before retrying (clock -> library).
	KBusy
	// KInvalOrder tells a reader to discard its copy (clock -> reader).
	// With a non-empty Readers copyset it additionally delegates a
	// subtree of the invalidation to the receiver: the receiver
	// discards its own copy, relays orders to the remaining members,
	// and returns one aggregated ack (the k-ary fan-out tree).
	KInvalOrder
	// KInvalAck confirms discarded copies (reader/relay -> parent).
	// Readers is the set of sites covered by this ack — the sender
	// alone on the unicast path, a whole confirmed subtree on the tree
	// path.
	KInvalAck
	// KPageSend carries page contents to a new holder (storing site ->
	// requester; the large 1024-byte-class message). Mode is the
	// granted protection, Delta the installed window.
	KPageSend
	// KUpgradeGrant upgrades a reader to writer in place, with no page
	// copy — optimization 1 (clock -> requester).
	KUpgradeGrant
	// KInstalled tells the library a grant landed, completing (its
	// share of) the cycle (new holder -> library).
	KInstalled
	// KAlready tells a requester the library found its request already
	// satisfied (library -> requester); the requester rechecks and
	// refaults if it still needs something.
	KAlready
	// KReleaseRead returns a read copy to the library on detach
	// (holder -> library).
	KReleaseRead
	// KReleaseWrite returns the writable copy, carrying the page data
	// (holder -> library; large).
	KReleaseWrite
	// KClockHandoff appoints a new clock site among the remaining
	// readers, carrying the reader mask (library -> new clock).
	KClockHandoff
	// KReleaseDone confirms the library processed a page release; the
	// departing site may now discard the page (library -> holder).
	KReleaseDone
	// KAck confirms receipt of one sequenced message on a reliable
	// channel (receiver -> sender). Seq is cumulative: it acknowledges
	// every sequenced message up to and including it for the sender's
	// current Epoch. Acks exist only when the engine's reliability
	// layer is enabled; Locus virtual circuits made them implicit.
	KAck
	// KDenied tells a requester its request cannot be granted because a
	// peer the grant depends on is unreachable past the retry budget
	// (library -> requester). The requester surfaces an error to the
	// faulting accessor — the "degraded grant" path — instead of
	// blocking forever.
	KDenied
	// KGrantFail tells the library an in-flight grant could not be
	// delivered (clock site -> library). Req is the requester that was
	// being granted; for a failed write grant Data carries the page
	// contents collected for the new writer so they are rehomed at the
	// library rather than lost.
	KGrantFail
	// KRecover drives library failover. Sent to the successor site
	// (Req == receiver) it triggers a takeover of the segment's library
	// role; sent by a recovering successor (Req == sender, with the
	// bumped SegEpoch) it asks a surviving site to adopt the new epoch
	// and report its page holdings.
	KRecover
	// KRecoverReply carries one site's page holdings to the recovering
	// library (surviving site -> new library). Data is a sequence of
	// 5-byte records (page number + state byte); Upgrade marks the
	// final chunk of the report.
	KRecoverReply
	// KInvalFail reports the subtree members a fan-out relay could not
	// confirm (relay -> parent). Readers is the failed set; the clock
	// aborts the cycle exactly as if it had lost a direct reader.
	KInvalFail
	// KMigrate offers the segment's library role to a successor site
	// (current library -> successor). Data carries the library's page
	// records as 5-byte holdings records (same shape as KRecoverReply);
	// Upgrade marks the final chunk, and the final chunk's SegEpoch is
	// the epoch the successor must exceed when it installs. Unlike
	// KRecover the records are transferred, not reconstructed.
	KMigrate
	// KMigrateAck confirms (Page >= 0) or refuses (Page == -1) a
	// migration offer (successor -> old library). On acceptance SegEpoch
	// carries the successor's new, higher epoch; the old library deposes
	// itself and converts its frozen queue into epoch notices.
	KMigrateAck
	// KAppend replicates library page-record log entries to a follower
	// site (library -> follower). Data carries one or more self-
	// delimiting log entries (docs/REPLICATION.md); Cycle is the index
	// of the last entry in the batch; SegEpoch is the log term.
	KAppend
	// KAppendAck confirms applied log entries (follower -> library).
	// Cycle is the follower's cumulative applied index for the message's
	// SegEpoch; Page == -2 refuses the append (the site holds no replica
	// state for the segment).
	KAppendAck
	// KVote drives a replicated takeover. Sent by the election winner
	// (From == Req == winner, stamped with the bumped SegEpoch) it
	// solicits the group's log tails; a reply (From != Req) carries the
	// follower's log epoch, applied index, and its per-page latest
	// entries in Data, chunked, with Upgrade marking the final chunk.
	KVote

	kindCount
)

var kindNames = [...]string{
	KInvalid:      "invalid",
	KReadReq:      "read-req",
	KWriteReq:     "write-req",
	KAddReader:    "add-reader",
	KInval:        "inval",
	KBusy:         "busy",
	KInvalOrder:   "inval-order",
	KInvalAck:     "inval-ack",
	KPageSend:     "page-send",
	KUpgradeGrant: "upgrade-grant",
	KInstalled:    "installed",
	KAlready:      "already",
	KReleaseRead:  "release-read",
	KReleaseWrite: "release-write",
	KClockHandoff: "clock-handoff",
	KReleaseDone:  "release-done",
	KAck:          "ack",
	KDenied:       "denied",
	KGrantFail:    "grant-fail",
	KRecover:      "recover",
	KRecoverReply: "recover-reply",
	KInvalFail:    "inval-fail",
	KMigrate:      "migrate",
	KMigrateAck:   "migrate-ack",
	KAppend:       "append",
	KAppendAck:    "append-ack",
	KVote:         "vote",
}

// ParseKind resolves a kind's String() name back to its value; the
// chaos plan grammar uses the names in (from, to, kind) match rules.
func ParseKind(s string) (Kind, bool) {
	for k := KInvalid + 1; k < kindCount; k++ {
		if kindNames[k] == s {
			return k, true
		}
	}
	return KInvalid, false
}

// Kinds returns every valid message kind, for seed corpora and plan
// validation.
func Kinds() []Kind {
	ks := make([]Kind, 0, int(kindCount)-1)
	for k := KInvalid + 1; k < kindCount; k++ {
		ks = append(ks, k)
	}
	return ks
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Mode is the access mode carried in requests and grants.
type Mode uint8

const (
	// Read asks for / grants a readable copy.
	Read Mode = iota
	// Write asks for / grants the writable copy.
	Write
)

func (m Mode) String() string {
	if m == Read {
		return "read"
	}
	return "write"
}

// Msg is one protocol message. Unused fields are zero.
type Msg struct {
	Kind      Kind
	Mode      Mode
	Upgrade   bool
	Seg       int32       // segment id
	Page      int32       // page number within the segment
	From      int32       // sending site
	Req       int32       // requester / new writer site
	Pid       int32       // requesting process id (carried, read by nothing: the header layout is pinned)
	Readers   mmu.Copyset // copyset: read batch, reader bookkeeping, or fan-out subtree
	Delta     time.Duration
	Remaining time.Duration
	Seq       uint64 // per-(sender,receiver) sequence number; 0 = unsequenced
	Epoch     uint32 // reliable-channel incarnation; bumped when a sender gives up
	Cycle     uint32 // library grant-cycle tag correlating grants with KInstalled
	SegEpoch  uint32 // segment's library epoch; bumped by each failover (0 = original library)

	// Data carries page contents for KPageSend / KReleaseWrite /
	// KGrantFail. Ownership contract: Encode and AppendFrame copy Data
	// into the destination buffer, so a sender may reuse or pool the
	// backing array as soon as the encode call returns. Decode does the
	// opposite — it aliases Data into the input buffer without copying —
	// so a receiver that retains the message past the lifetime of that
	// buffer must replace Data with CloneData first.
	Data []byte
}

// CloneData returns a private copy of m.Data (nil when the message
// carries none). Receivers call it before retaining a decoded message
// whose Data still aliases a transport-owned read buffer.
func (m *Msg) CloneData() []byte {
	if len(m.Data) == 0 {
		return nil
	}
	return append([]byte(nil), m.Data...)
}

// NetBufBytes is the Locus network buffer size. The prototype's pages
// are 512 bytes but page-carrying messages travel in full 1024-byte
// buffers (§7.1 measures "a network message with a 1024 byte buffer"
// and §7.2 counts page responses as 1024-byte messages).
const NetBufBytes = 1024

// Size returns the wire size used by the network cost model: data-free
// control messages are "short"; data-carrying messages occupy at least
// one full network buffer.
func (m *Msg) Size() int {
	if len(m.Data) == 0 {
		return 0
	}
	if len(m.Data) < NetBufBytes {
		return NetBufBytes
	}
	return len(m.Data)
}

// String renders a compact human-readable form for logs and tests.
func (m *Msg) String() string {
	s := fmt.Sprintf("%v seg=%d page=%d from=%d", m.Kind, m.Seg, m.Page, m.From)
	switch m.Kind {
	case KInval:
		s += fmt.Sprintf(" mode=%v req=%d readers=%v upgrade=%v Δ=%v", m.Mode, m.Req, m.Readers, m.Upgrade, m.Delta)
	case KBusy:
		s += fmt.Sprintf(" remaining=%v", m.Remaining)
	case KPageSend:
		s += fmt.Sprintf(" mode=%v Δ=%v bytes=%d", m.Mode, m.Delta, len(m.Data))
	case KAddReader, KClockHandoff, KInvalFail:
		s += fmt.Sprintf(" readers=%v", m.Readers)
	}
	return s
}

// Header layout (big-endian): kind u8, mode u8, upgrade u8, seg i32,
// page i32, from i32, req i32, pid i32, delta i64, remaining i64,
// seq u64, epoch u32, cycle u32, segepoch u32, copyset length u16,
// data length u32 — followed by the variable-length copyset section
// (see mmu.Copyset's wire form) and then the data bytes.
const headerLen = 1 + 1 + 1 + 4 + 4 + 4 + 4 + 4 + 8 + 8 + 8 + 4 + 4 + 4 + 2 + 4 // 65 bytes

// Errors returned by Decode.
var (
	ErrShort      = errors.New("wire: truncated message")
	ErrBadKind    = errors.New("wire: unknown message kind")
	ErrBadLen     = errors.New("wire: implausible data length")
	ErrBadCopyset = errors.New("wire: malformed copyset section")
)

// MaxData bounds the data field a decoder will accept (a page; the
// prototype's pages are 512 bytes, the cost model's reference page
// message is 1 KB — 64 KB is a generous safety bound).
const MaxData = 64 * 1024

// MaxCopyset bounds the copyset section a decoder will accept: the
// bitmap form covering every representable site.
const MaxCopyset = mmu.MaxCopysetWireLen

// MaxFrame is the largest legal encoded message: a full header plus a
// maximal copyset plus MaxData bytes of page contents. Length-prefixed
// stream transports use it as the corrupt-stream bound — any prefix
// beyond it cannot open a real frame.
const MaxFrame = headerLen + MaxCopyset + MaxData

// EncodedLen returns the exact number of bytes Encode appends for m.
func (m *Msg) EncodedLen() int { return headerLen + m.Readers.WireLen() + len(m.Data) }

// Encode appends the binary form of m to buf and returns the result.
// m.Data is copied, never aliased: the caller keeps ownership of it.
func Encode(buf []byte, m *Msg) []byte {
	var h [headerLen]byte
	h[0] = byte(m.Kind)
	h[1] = byte(m.Mode)
	if m.Upgrade {
		h[2] = 1
	}
	binary.BigEndian.PutUint32(h[3:], uint32(m.Seg))
	binary.BigEndian.PutUint32(h[7:], uint32(m.Page))
	binary.BigEndian.PutUint32(h[11:], uint32(m.From))
	binary.BigEndian.PutUint32(h[15:], uint32(m.Req))
	binary.BigEndian.PutUint32(h[19:], uint32(m.Pid))
	binary.BigEndian.PutUint64(h[23:], uint64(m.Delta))
	binary.BigEndian.PutUint64(h[31:], uint64(m.Remaining))
	binary.BigEndian.PutUint64(h[39:], m.Seq)
	binary.BigEndian.PutUint32(h[47:], m.Epoch)
	binary.BigEndian.PutUint32(h[51:], m.Cycle)
	binary.BigEndian.PutUint32(h[55:], m.SegEpoch)
	binary.BigEndian.PutUint16(h[59:], uint16(m.Readers.WireLen()))
	binary.BigEndian.PutUint32(h[61:], uint32(len(m.Data)))
	buf = append(buf, h[:]...)
	buf = m.Readers.AppendWire(buf)
	return append(buf, m.Data...)
}

// AppendFrame appends one length-prefixed frame — a 4-byte big-endian
// length followed by the encoded message — to buf in a single shot.
// This is the TCP transport's write unit; producing prefix, header and
// data with one append chain keeps the hot path free of intermediate
// buffers. Like Encode it copies m.Data.
func AppendFrame(buf []byte, m *Msg) []byte {
	var p [4]byte
	binary.BigEndian.PutUint32(p[:], uint32(m.EncodedLen()))
	return Encode(append(buf, p[:]...), m)
}

// Buf is a pooled encode buffer. The pointer wrapper keeps Get/Put
// allocation-free (putting a bare slice into a sync.Pool would box it
// on every call).
type Buf struct{ B []byte }

var bufPool = sync.Pool{
	New: func() any { return &Buf{B: make([]byte, 0, 4096)} },
}

// GetBuf returns an empty encode buffer from the pool. Typical use:
//
//	b := wire.GetBuf()
//	b.B = wire.AppendFrame(b.B, m)
//	... write b.B ...
//	wire.PutBuf(b)
func GetBuf() *Buf {
	b := bufPool.Get().(*Buf)
	b.B = b.B[:0]
	return b
}

// PutBuf returns a buffer to the pool. Oversized buffers (beyond one
// max frame) are dropped so a single jumbo message cannot pin memory in
// the pool forever.
func PutBuf(b *Buf) {
	if b == nil || cap(b.B) > MaxFrame+4 {
		return
	}
	bufPool.Put(b)
}

// Decode parses one message from buf, returning the message and the
// number of bytes consumed. Data is aliased into buf, not copied: a
// caller that reuses buf (or returns it to a pool) while retaining the
// message must replace Data with CloneData first. The copyset is
// decoded into owned storage (inline-sized sets allocation-free), so
// Readers never aliases buf.
func Decode(buf []byte) (Msg, int, error) {
	if len(buf) < headerLen {
		return Msg{}, 0, ErrShort
	}
	var m Msg
	m.Kind = Kind(buf[0])
	if m.Kind == KInvalid || m.Kind >= kindCount {
		return Msg{}, 0, ErrBadKind
	}
	m.Mode = Mode(buf[1])
	m.Upgrade = buf[2] != 0
	m.Seg = int32(binary.BigEndian.Uint32(buf[3:]))
	m.Page = int32(binary.BigEndian.Uint32(buf[7:]))
	m.From = int32(binary.BigEndian.Uint32(buf[11:]))
	m.Req = int32(binary.BigEndian.Uint32(buf[15:]))
	m.Pid = int32(binary.BigEndian.Uint32(buf[19:]))
	m.Delta = time.Duration(binary.BigEndian.Uint64(buf[23:]))
	m.Remaining = time.Duration(binary.BigEndian.Uint64(buf[31:]))
	m.Seq = binary.BigEndian.Uint64(buf[39:])
	m.Epoch = binary.BigEndian.Uint32(buf[47:])
	m.Cycle = binary.BigEndian.Uint32(buf[51:])
	m.SegEpoch = binary.BigEndian.Uint32(buf[55:])
	cs := int(binary.BigEndian.Uint16(buf[59:]))
	if cs > MaxCopyset {
		return Msg{}, 0, ErrBadCopyset
	}
	// Compare as uint32 before converting: the conversion can only
	// produce a legal length, so no signedness branch is needed.
	if binary.BigEndian.Uint32(buf[61:]) > MaxData {
		return Msg{}, 0, ErrBadLen
	}
	n := int(binary.BigEndian.Uint32(buf[61:]))
	if len(buf) < headerLen+cs+n {
		return Msg{}, 0, ErrShort
	}
	if cs > 0 {
		var err error
		m.Readers, err = mmu.DecodeCopysetWire(buf[headerLen : headerLen+cs])
		if err != nil {
			return Msg{}, 0, ErrBadCopyset
		}
	}
	if n > 0 {
		m.Data = buf[headerLen+cs : headerLen+cs+n]
	}
	return m, headerLen + cs + n, nil
}
