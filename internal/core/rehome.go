package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"mirage/internal/mem"
	"mirage/internal/mmu"
	"mirage/internal/wire"
)

// Rehoming: one record, one install step (DESIGN.md §18).
//
// The paper fixes a segment's library site for life (§6.0). Here the
// role moves for two reasons — a crash, after which a vote quorum of the
// library's group elects a successor from the replicated log
// (failover.go, replog.go), and a voluntary handoff to the hottest
// requester (migrate.go) — and the two differ only in how they OBTAIN
// the library's state. What is obtained is always the same thing, one
// libRecord per page, and what is done with it is always the same
// thing, installLibrary. Each source is a small function yielding a
// libSource; the record has one wire form; a payload too large for one
// message is cut by one function and put back together by one other.

// libRecord is what the library knows about one page that outlives the
// library's stay at a site: §6.0's "which sites are storing a given
// page" (readers, writer), the clock site and the page's Δ, then the
// tuning state that keeps a rehomed library warm. It is
// embedded in libPage, so a new per-page field that must survive a
// move is added here and to appendRecord/decodeRecord, nowhere else.
type libRecord struct {
	page    int32
	readers mmu.Copyset
	writer  int // mmu.NoWriter if none
	clock   int
	delta   time.Duration

	// Denial-side tuning signals (DESIGN.md §16). denied counts KBusy
	// replies for this page; denRemEWMA smooths the remaining window
	// time those denials reported. flipEWMA tracks write-sharing in
	// fixed point (flipScale per alternation; see libInstalled) and
	// lastWriter is the previous write grantee it compares against.
	denied     int
	denRemEWMA time.Duration
	flipEWMA   int
	lastWriter int
}

// freshRecord is a page nobody has said anything about: no copy, no
// clock site (-1) until a holder claims the role or the installer
// picks one, the segment's default Δ, which a source that knows the
// tuned value overwrites.
func freshRecord(meta *mem.Segment, page int) libRecord {
	return libRecord{page: int32(page), writer: mmu.NoWriter, clock: -1,
		delta: meta.Delta, lastWriter: mmu.NoWriter}
}

// logged returns the part of the record a log entry carries — page,
// writer, clock, Δ, readers — and none of the tuning state: an elected
// library relearns that, as a rebuilt one does.
func (r *libRecord) logged() libRecord {
	return libRecord{page: r.page, readers: r.readers, writer: r.writer, clock: r.clock,
		delta: r.delta, lastWriter: mmu.NoWriter}
}

// Record wire form. The core —
//
//	writer i32 | clock i32 | delta i64 | cs-len u16 | copyset wire
//
// — is the record of a log entry (replog.go), whose bytes EvReplicate
// digests. The full form, one record of a KMigrate offer, puts the
// page number in front and the tuning tail behind:
//
//	page u32 | core | denied u32 | denial-remaining EWMA u64 |
//	flip EWMA u16 | last writer i32
//
// The copyset is mmu.AppendWire's: a member list or bitmap words,
// whichever is smaller.
// Nothing in a record is a point in time: two sites' clocks are
// unrelated.
const (
	recCoreBytes = 4 + 4 + 8 + 2
	recTailBytes = 4 + 8 + 2 + 4
)

func appendRecord(buf []byte, r *libRecord, full bool) []byte {
	be := binary.BigEndian
	if full {
		buf = be.AppendUint32(buf, uint32(r.page))
	}
	buf = be.AppendUint32(buf, uint32(int32(r.writer)))
	buf = be.AppendUint32(buf, uint32(int32(r.clock)))
	buf = be.AppendUint64(buf, uint64(r.delta))
	buf = be.AppendUint16(buf, uint16(r.readers.WireLen()))
	buf = r.readers.AppendWire(buf)
	if full {
		buf = be.AppendUint32(buf, uint32(r.denied))
		buf = be.AppendUint64(buf, uint64(r.denRemEWMA))
		buf = be.AppendUint16(buf, uint16(r.flipEWMA))
		buf = be.AppendUint32(buf, uint32(int32(r.lastWriter)))
	}
	return buf
}

// decodeRecord decodes one record from the head of data and returns
// the bytes consumed. It trusts nothing: a record cut short, a copyset
// that does not parse, a negative duration or count is an error, never
// a record with some fields left at zero. Whether the sites and the
// page it names exist is installLibrary's question — the codec does
// not know the segment.
func decodeRecord(data []byte, full bool) (libRecord, int, error) {
	be := binary.BigEndian
	r := libRecord{lastWriter: mmu.NoWriter}
	n, fixed := 0, recCoreBytes
	if full {
		fixed += 4 + recTailBytes
	}
	if len(data) < fixed {
		return libRecord{}, 0, fmt.Errorf("record: truncated at %d of %d bytes", len(data), fixed)
	}
	if full {
		r.page = int32(be.Uint32(data))
		n = 4
	}
	r.writer = int(int32(be.Uint32(data[n:])))
	r.clock = int(int32(be.Uint32(data[n+4:])))
	r.delta = time.Duration(be.Uint64(data[n+8:]))
	cs := int(be.Uint16(data[n+16:]))
	n += recCoreBytes
	if cs > len(data)-fixed {
		return libRecord{}, 0, fmt.Errorf("record: truncated at %d of %d bytes", len(data), fixed+cs)
	}
	var err error
	if r.readers, err = mmu.DecodeCopysetWire(data[n : n+cs]); err != nil {
		return libRecord{}, 0, err
	}
	n += cs
	if full {
		r.denied = int(int32(be.Uint32(data[n:])))
		r.denRemEWMA = time.Duration(be.Uint64(data[n+4:]))
		r.flipEWMA = int(be.Uint16(data[n+12:]))
		r.lastWriter = int(int32(be.Uint32(data[n+14:])))
		n += recTailBytes
	}
	if r.delta < 0 || r.denRemEWMA < 0 || r.denied < 0 || r.flipEWMA > flipScale {
		return libRecord{}, 0, fmt.Errorf("record: page %d: value out of range", r.page)
	}
	return r, n, nil
}

// chunkBytes is where a long payload is cut into several messages:
// comfortably under wire.MaxData, whatever one more item adds.
const chunkBytes = 60000

// sendChunked ships n items to a site in as few messages as the
// payload bound allows. Each message is tmpl with Data starting at a
// copy of hdr; put appends item i to m.Data (and may stamp m: a log
// snapshot's chunk carries its last index). Upgrade marks the last
// message, and there always is one, so an empty payload still tells
// the receiver it is complete. reassemble is the other end.
func (e *Engine) sendChunked(to int, tmpl wire.Msg, hdr []byte, n int, put func(m *wire.Msg, i int)) {
	m := tmpl
	m.Data = append([]byte(nil), hdr...)
	for i := 0; i < n; i++ {
		if len(m.Data) >= chunkBytes {
			out := m
			e.send(to, &out)
			m = tmpl
			m.Data = append([]byte(nil), hdr...)
		}
		put(&m, i)
	}
	m.Upgrade = true
	e.send(to, &m)
}

// partial is a chunked payload still arriving from one site.
type partial struct {
	epoch uint32
	data  []byte
}

// partialKey names the stream a chunk belongs to: one payload of a
// kind per sending site at a time, in order on that site's circuit.
type partialKey struct {
	kind wire.Kind
	from int32
}

// reassemble takes one message of a payload sent by sendChunked and
// returns the whole payload once its last message is in — never a
// part of it, so nothing downstream can act on a page set cut short.
// Every message repeats the hdr bytes; the payload keeps one copy. A
// message of another epoch than the buffered ones starts over: what
// was buffered died with its epoch.
func (sn *segNode) reassemble(m *wire.Msg, hdr int) ([]byte, bool) {
	if len(m.Data) < hdr {
		return nil, false
	}
	k := partialKey{m.Kind, m.From}
	p := sn.partials[k]
	if p == nil || p.epoch != m.SegEpoch {
		p = &partial{epoch: m.SegEpoch, data: append([]byte(nil), m.Data[:hdr]...)}
		if sn.partials == nil {
			sn.partials = make(map[partialKey]*partial)
		}
		sn.partials[k] = p
	}
	p.data = append(p.data, m.Data[hdr:]...)
	if !m.Upgrade {
		return nil, false
	}
	delete(sn.partials, k)
	return p.data, true
}

// libSource is a library state on its way to being installed at this
// site, as one of the two rehoming sources obtained it: the merged log
// tail (logSource) or a migration offer (offerSource).
type libSource struct {
	recs []libRecord
	prev int // the library being replaced
	// exact: recs are prev's own record of a quiescent segment, so every
	// copy and every clock site's reader mask already agree with them,
	// and prev is alive. Otherwise they were pieced together after prev
	// was lost, with every copy it held, and installLibrary repairs them.
	exact    bool
	epoch    uint32 // the epoch the installed library grants under
	announce func() // the source's counters, trace events and confirmation
}

// installLibrary makes this site the segment's library with the state
// a source obtained; it is the only way the role arrives anywhere but
// at the creator. The argument that the result is a library every
// other site can keep talking to is made once, here (DESIGN.md §18):
//
//   - Nothing is installed from a state that does not name every page
//     exactly once and only sites of this cluster: the error leaves the
//     site exactly as it was, and the source's caller refuses or serves
//     nothing.
//   - A state that is not exact is repaired page by page until it is one
//     the protocol could have reached (repairRecord), with the messages
//     that make the holders agree with it.
//   - The role exists only from the moment the record does: epoch,
//     identity and record are set together, and transient state of older
//     epochs — here and, through the epoch stamp, everywhere — is dead.
//   - Requests that arrived while the state was being obtained are served
//     from the record, in arrival order, and every blocked fault rechecks.
func (e *Engine) installLibrary(sn *segNode, src libSource) error {
	if err := e.checkRecords(sn, src); err != nil {
		return err
	}
	seg := int32(sn.meta.ID)
	sn.segEpoch.Store(src.epoch)
	sn.curLib = e.site
	lib := newLibSeg(sn.meta)
	for i := range src.recs {
		p := &lib.pages[src.recs[i].page]
		p.libRecord = src.recs[i]
		// The controller's rate-limit state restarts (tuned=false re-arms
		// the cooldown at the first local grant without touching Δ); only
		// its denial baseline follows the shipped count.
		p.tuneDenied = p.denied
		if !src.exact {
			e.repairRecord(seg, &p.libRecord, src)
		}
	}
	sn.lib = lib
	rc := sn.recov
	sn.recov = nil
	// Transient state of older epochs is dead. So are this site's own
	// requests if the previous library is alive: they sit in its frozen
	// queue, which it drops on hearing of this installation, and the woken
	// faults re-issue them here. (A dead library's were forgotten when the
	// takeover began; those made since wait in rc.buffered.)
	e.resetPages(sn, src.exact, true)
	// Accepting the role starts a fresh demand window and a cooldown, so
	// the segment cannot bounce straight back.
	now := e.env.Now()
	sn.place = &placeTrack{demand: make(map[int]int), windowStart: now, lastMove: now}
	if e.failover != nil {
		// Whatever the source, the installed record IS the new epoch's log
		// head: seed the log from it and base this leader's follower group
		// eagerly — the group changes with the leader.
		e.replSeedLeader(sn)
	}
	src.announce()
	if rc != nil {
		rc.disarm()
		for _, m := range rc.buffered {
			e.handleLibrary(sn, m)
		}
	}
	e.wakeAll(sn)
	return nil
}

// checkRecords is installLibrary's precondition.
func (e *Engine) checkRecords(sn *segNode, src libSource) error {
	sites := e.sites
	site := func(s int) bool { return s >= 0 && s < sites }
	seen := make([]bool, sn.m.Pages())
	for i := range src.recs {
		r := &src.recs[i]
		if r.page < 0 || int(r.page) >= len(seen) || seen[r.page] {
			return fmt.Errorf("core: library state names page %d twice or outside the segment's %d", r.page, len(seen))
		}
		seen[r.page] = true
		maxReader := -1
		r.readers.ForEach(func(s int) { maxReader = s })
		// An inexact state's clock is chosen by the repair, so only an
		// exact one has to name a real site.
		if (r.writer != mmu.NoWriter && !site(r.writer)) || (src.exact && !site(r.clock)) ||
			(r.lastWriter != mmu.NoWriter && !site(r.lastWriter)) || maxReader >= sites {
			return fmt.Errorf("core: library state for page %d names a site outside the cluster's %d", r.page, sites)
		}
	}
	if len(src.recs) != len(seen) {
		return fmt.Errorf("core: library state covers %d of %d pages", len(src.recs), len(seen))
	}
	return nil
}

// repairRecord turns what the logs and the probed holders said about a
// page after a crash into a record the protocol could have reached, and
// tells the holders what changed.
func (e *Engine) repairRecord(seg int32, r *libRecord, src libSource) {
	r.readers = r.readers.Remove(src.prev)
	switch {
	case r.writer != mmu.NoWriter:
		// Read copies alongside a writer are leftovers of a write cycle
		// the crash interrupted mid-collection; order them discarded to
		// restore Table 1's exclusivity. A writable copy that died with
		// the previous library leaves the page orphaned exactly as below.
		r.clock = r.writer
		r.readers.Remove(r.writer).ForEach(func(s int) {
			e.send(s, &wire.Msg{Kind: wire.KInvalOrder, Seg: seg, Page: r.page})
		})
		r.readers = mmu.Copyset{}
	case r.readers.Empty():
		// No surviving copy: the only data is wherever the previous
		// library left it. Keep naming it writer — grants aimed there
		// fail fast while it is down and work again when it rejoins.
		// Zero-filling would discard the only good copy.
		r.writer, r.clock = src.prev, src.prev
	default:
		if !r.readers.Has(r.clock) {
			r.clock = r.readers.Sites()[0]
			if r.readers.Has(e.site) {
				r.clock = e.site
			}
		}
		// Refresh the clock's reader mask to the repaired set.
		e.send(r.clock, &wire.Msg{Kind: wire.KClockHandoff, Seg: seg, Page: r.page, Readers: r.readers})
	}
}
