// Package ivy implements a Li/Hudak-style shared virtual memory
// system (the "IVY" line of work the paper's Appendix I discusses) as
// a baseline for the Mirage benches. It is a write-invalidate,
// single-owner protocol with a centralized manager per segment:
//
//   - The manager (the creating site) records each page's owner and
//     copy set and serializes requests per page.
//   - A read fault asks the manager, which forwards to the owner; the
//     owner keeps a read copy and sends the page to the requester.
//   - A write fault asks the manager, which invalidates every copy
//     (collecting acknowledgements), then has the owner transfer the
//     page — always a full page copy, even when the requester already
//     held it read-only; ownership moves to the writer.
//
// The contrasts with Mirage are exactly the paper's contributions:
// no time window Δ (invalidation is immediate), no silent
// reader→writer upgrade, and no downgraded-writer copy retention on
// the write path. Running both engines on the identical substrate
// (internal/ipc with Config.NewDSM) isolates those design choices.
package ivy

import (
	"fmt"
	"time"

	"mirage/internal/core"
	"mirage/internal/mem"
	"mirage/internal/mmu"
	"mirage/internal/vaxmodel"
	"mirage/internal/wire"
)

// kind discriminates IVY protocol messages.
type kind uint8

const (
	kInvalid     kind = iota
	kReadReq          // requester -> manager
	kWriteReq         // requester -> manager
	kForward          // manager -> owner: send page to Req with Mode
	kInvalidate       // manager -> copy holder
	kInvAck           // holder -> manager
	kPage             // owner -> requester (data)
	kConfirm          // requester -> manager: transfer complete
	kRelease          // holder -> manager on detach (data for owners)
	kReleaseDone      // manager -> holder
)

func (k kind) String() string {
	switch k {
	case kReadReq:
		return "ivy-read-req"
	case kWriteReq:
		return "ivy-write-req"
	case kForward:
		return "ivy-forward"
	case kInvalidate:
		return "ivy-invalidate"
	case kInvAck:
		return "ivy-inv-ack"
	case kPage:
		return "ivy-page"
	case kConfirm:
		return "ivy-confirm"
	case kRelease:
		return "ivy-release"
	case kReleaseDone:
		return "ivy-release-done"
	}
	return fmt.Sprintf("ivy-kind(%d)", uint8(k))
}

// Msg is an IVY protocol message. It satisfies core.NetMsg.
type Msg struct {
	Kind    kind
	Mode    wire.Mode
	Seg     int32
	Page    int32
	From    int32
	Req     int32
	Copyset uint64 // dynamic manager: copy set shipped with ownership
	Data    []byte
}

// Size implements core.NetMsg with the same network-buffer rule as the
// Mirage wire format.
func (m *Msg) Size() int {
	if len(m.Data) == 0 {
		return 0
	}
	if len(m.Data) < wire.NetBufBytes {
		return wire.NetBufBytes
	}
	return len(m.Data)
}

func (m *Msg) String() string {
	return fmt.Sprintf("%v seg=%d page=%d from=%d req=%d mode=%v bytes=%d",
		m.Kind, m.Seg, m.Page, m.From, m.Req, m.Mode, len(m.Data))
}

// Stats counts engine activity.
type Stats struct {
	ReadFaults    int
	WriteFaults   int
	RequestsSent  int
	PagesSent     int
	PagesReceived int
	Invalidations int // invalidate orders received
	Forwards      int // forwards handled as owner
}

type mgrReq struct {
	site  int
	write bool
	data  []byte // for releases
	kind  kind
}

// mgrPage is the manager's per-page record.
type mgrPage struct {
	owner   int
	copyset siteMask // read-copy holders, including the owner
	busy    bool
	waitInv int
	grant   mgrReq
	queue   []mgrReq
}

type segNode struct {
	meta *mem.Segment
	m    *mmu.Seg

	waiters map[int32][]func()
	outR    map[int32]bool
	outW    map[int32]bool

	mgr []mgrPage // non-nil at the manager site

	releasesPending int
}

// Engine is one site's IVY protocol instance. It implements the same
// DSM surface as the Mirage engine and plugs into ipc.Config.NewDSM.
type Engine struct {
	env   core.Env
	site  int
	segs  map[int32]*segNode
	stats Stats
	costs core.Costs
}

// New creates an IVY engine on env.
func New(env core.Env) *Engine {
	return &Engine{
		env:   env,
		site:  env.Site(),
		segs:  make(map[int32]*segNode),
		costs: core.DefaultCosts(),
	}
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// CreateSegment initializes manager state at the creating site.
func (e *Engine) CreateSegment(meta *mem.Segment) {
	sn := e.register(meta)
	sn.mgr = make([]mgrPage, meta.Pages)
	now := e.env.Now()
	for p := 0; p < meta.Pages; p++ {
		sn.m.Install(p, nil, mmu.ReadWrite, now)
		sn.mgr[p].owner = e.site
		sn.mgr[p].copyset = maskOf(e.site)
	}
}

// AttachSegment registers the segment at a non-manager site.
func (e *Engine) AttachSegment(meta *mem.Segment) { e.register(meta) }

func (e *Engine) register(meta *mem.Segment) *segNode {
	if sn, ok := e.segs[int32(meta.ID)]; ok {
		return sn
	}
	sn := &segNode{
		meta:    meta,
		m:       mmu.NewSeg(meta.Pages, meta.PageSize),
		waiters: make(map[int32][]func()),
		outR:    make(map[int32]bool),
		outW:    make(map[int32]bool),
	}
	e.segs[int32(meta.ID)] = sn
	return sn
}

// DestroySegment drops all local state and wakes pending waiters.
func (e *Engine) DestroySegment(id int32) {
	sn, ok := e.segs[id]
	if !ok {
		return
	}
	delete(e.segs, id)
	sn.m.Close() // for good: an attach may outlive the segment
	for p, ws := range sn.waiters {
		for _, w := range ws {
			w()
		}
		delete(sn.waiters, p)
	}
}

// Seg returns the site's page table for a segment (nil if it is not
// attached here): where the access layer checks and holds a page.
func (e *Engine) Seg(id int32) *mmu.Seg {
	sn, ok := e.segs[id]
	if !ok {
		return nil
	}
	return sn.m
}

// Fault requests page access for a local process.
func (e *Engine) Fault(seg, page int32, write bool, pid int32, wake func()) {
	sn, ok := e.segs[seg]
	if !ok {
		e.env.Exec(0, wake)
		return
	}
	if write {
		e.stats.WriteFaults++
	} else {
		e.stats.ReadFaults++
	}
	sn.waiters[page] = append(sn.waiters[page], wake)

	var k kind
	switch {
	case write && !sn.outW[page]:
		sn.outW[page] = true
		k = kWriteReq
	case !write && !sn.outR[page] && !sn.outW[page]:
		sn.outR[page] = true
		k = kReadReq
	default:
		return
	}
	e.stats.RequestsSent++
	cost := e.costs.Request
	if sn.meta.Library == e.site {
		cost = e.costs.LocalFault
	}
	m := &Msg{Kind: k, Seg: seg, Page: page, From: int32(e.site), Req: int32(e.site)}
	mgr := sn.meta.Library
	e.env.Exec(cost, func() { e.env.Send(mgr, m) })
}

func (e *Engine) wakeWaiters(sn *segNode, page int32) {
	ws := sn.waiters[page]
	if len(ws) == 0 {
		return
	}
	delete(sn.waiters, page)
	for _, w := range ws {
		w()
	}
}

// ReleaseSegment returns this site's copies to the manager on the last
// local detach.
func (e *Engine) ReleaseSegment(seg int32) {
	sn, ok := e.segs[seg]
	if !ok || sn.meta.Library == e.site {
		return
	}
	sn.m.Close()
	for p := 0; p < sn.m.Pages(); p++ {
		if !sn.m.Present(p) {
			continue
		}
		sn.releasesPending++
		e.send(sn.meta.Library, &Msg{
			Kind: kRelease, Seg: seg, Page: int32(p),
			Data: append([]byte(nil), sn.m.Frame(p)...),
		})
	}
	if sn.releasesPending == 0 {
		sn.m.Open()
	}
}

func (e *Engine) send(to int, m *Msg) {
	m.From = int32(e.site)
	e.env.Send(to, m)
}

// Deliver injects a received protocol message.
func (e *Engine) Deliver(payload any) {
	m := payload.(*Msg)
	cost := time.Duration(0)
	if int(m.From) != e.site {
		switch m.Kind {
		case kReadReq, kWriteReq, kConfirm, kInvAck, kRelease:
			cost = e.costs.Server
		case kPage:
			cost = e.costs.Install
		default:
			cost = e.costs.Input
		}
	}
	e.env.Exec(cost, func() { e.handle(m) })
}

func (e *Engine) handle(m *Msg) {
	sn, ok := e.segs[m.Seg]
	if !ok {
		return // straggler after destroy
	}
	switch m.Kind {
	case kReadReq, kWriteReq:
		e.mgrEnqueue(sn, m, mgrReq{site: int(m.From), write: m.Kind == kWriteReq, kind: m.Kind})
	case kRelease:
		e.mgrEnqueue(sn, m, mgrReq{site: int(m.From), data: append([]byte(nil), m.Data...), kind: kRelease})
	case kForward:
		e.handleForward(sn, m)
	case kInvalidate:
		e.handleInvalidate(sn, m)
	case kInvAck:
		e.mgrInvAck(sn, m)
	case kPage:
		e.handlePage(sn, m)
	case kConfirm:
		e.mgrConfirm(sn, m)
	case kReleaseDone:
		e.handleReleaseDone(sn, m)
	default:
		panic(fmt.Sprintf("ivy: site %d: unhandled %v", e.site, m))
	}
}

// --- manager side ---

func (e *Engine) mgrEnqueue(sn *segNode, m *Msg, r mgrReq) {
	if sn.mgr == nil {
		panic(fmt.Sprintf("ivy: site %d is not the manager for %v", e.site, m))
	}
	mp := &sn.mgr[m.Page]
	mp.queue = append(mp.queue, r)
	e.mgrProcess(sn, m.Page)
}

func (e *Engine) mgrProcess(sn *segNode, page int32) {
	mp := &sn.mgr[page]
	for !mp.busy && len(mp.queue) > 0 {
		r := mp.queue[0]
		mp.queue = mp.queue[1:]
		switch r.kind {
		case kRelease:
			e.mgrRelease(sn, page, r)
		case kReadReq:
			mp.busy = true
			mp.grant = r
			e.send(mp.owner, &Msg{Kind: kForward, Mode: wire.Read, Seg: int32(sn.meta.ID), Page: page, Req: int32(r.site)})
		case kWriteReq:
			mp.busy = true
			mp.grant = r
			// Invalidate every copy except the owner's (the owner
			// discards when it forwards) and the requester's own
			// (overwritten by the incoming page; basic IVY ships the
			// data even to a requester that held a read copy).
			targets := mp.copyset.Remove(mp.owner).Remove(r.site)
			mp.waitInv = targets.Count()
			if mp.waitInv == 0 {
				e.mgrForwardWrite(sn, page)
				continue
			}
			targets.ForEach(func(s int) {
				e.send(s, &Msg{Kind: kInvalidate, Seg: int32(sn.meta.ID), Page: page})
			})
		}
	}
}

func (e *Engine) mgrForwardWrite(sn *segNode, page int32) {
	mp := &sn.mgr[page]
	e.send(mp.owner, &Msg{
		Kind: kForward, Mode: wire.Write, Seg: int32(sn.meta.ID), Page: page,
		Req: int32(mp.grant.site),
	})
}

func (e *Engine) mgrInvAck(sn *segNode, m *Msg) {
	mp := &sn.mgr[m.Page]
	if !mp.busy || mp.waitInv <= 0 {
		panic(fmt.Sprintf("ivy: site %d: unexpected inv-ack %v", e.site, m))
	}
	mp.waitInv--
	if mp.waitInv == 0 {
		e.mgrForwardWrite(sn, m.Page)
	}
}

func (e *Engine) mgrConfirm(sn *segNode, m *Msg) {
	mp := &sn.mgr[m.Page]
	if !mp.busy {
		panic(fmt.Sprintf("ivy: site %d: confirm with no grant %v", e.site, m))
	}
	r := mp.grant
	if r.write {
		mp.owner = r.site
		mp.copyset = maskOf(r.site)
	} else {
		mp.copyset = mp.copyset.Add(r.site)
	}
	mp.busy = false
	mp.grant = mgrReq{}
	e.mgrProcess(sn, m.Page)
}

func (e *Engine) mgrRelease(sn *segNode, page int32, r mgrReq) {
	mp := &sn.mgr[page]
	switch {
	case mp.owner == r.site:
		// Owner going away: the manager takes the page home. Other
		// read copies may remain, so the reinstalled home copy is
		// writable only when none do.
		now := e.env.Now()
		if sn.m.Present(int(page)) {
			sn.m.Invalidate(int(page))
		}
		rest := mp.copyset.Remove(r.site)
		prot := mmu.ReadWrite
		if !rest.Remove(e.site).Empty() {
			prot = mmu.ReadOnly
		}
		sn.m.Install(int(page), r.data, prot, now)
		mp.owner = e.site
		mp.copyset = rest.Add(e.site)
	case mp.copyset.Has(r.site):
		mp.copyset = mp.copyset.Remove(r.site)
	}
	e.send(r.site, &Msg{Kind: kReleaseDone, Seg: int32(sn.meta.ID), Page: page})
}

// --- holder side ---

// handleForward runs at the page owner.
func (e *Engine) handleForward(sn *segNode, m *Msg) {
	e.stats.Forwards++
	p := int(m.Page)
	if !sn.m.Present(p) {
		panic(fmt.Sprintf("ivy: site %d: forward for absent page %v", e.site, m))
	}
	now := e.env.Now()
	data := append([]byte(nil), sn.m.Frame(p)...)
	if m.Mode == wire.Write {
		// Ownership moves; this copy dies (write-invalidate).
		sn.m.Invalidate(p)
	} else if sn.m.Prot(p) == mmu.ReadWrite {
		// Owner keeps a read copy on a read forward.
		sn.m.Downgrade(p, now)
	}
	if int(m.Req) == e.site {
		// Forward back to self (manager colocations); install directly.
		e.installPage(sn, m.Page, data, m.Mode)
		return
	}
	e.stats.PagesSent++
	e.send(int(m.Req), &Msg{Kind: kPage, Mode: m.Mode, Seg: m.Seg, Page: m.Page, Req: m.Req, Data: data})
}

func (e *Engine) handleInvalidate(sn *segNode, m *Msg) {
	e.stats.Invalidations++
	p := int(m.Page)
	if sn.m.Present(p) {
		sn.m.Invalidate(p)
	}
	e.send(int(m.From), &Msg{Kind: kInvAck, Seg: m.Seg, Page: m.Page})
}

func (e *Engine) handlePage(sn *segNode, m *Msg) {
	e.stats.PagesReceived++
	e.installPage(sn, m.Page, m.Data, m.Mode)
}

func (e *Engine) installPage(sn *segNode, page int32, data []byte, mode wire.Mode) {
	p := int(page)
	now := e.env.Now()
	if data != nil {
		prot := mmu.ReadOnly
		if mode == wire.Write {
			prot = mmu.ReadWrite
		}
		if sn.m.Present(p) {
			sn.m.Invalidate(p)
		}
		sn.m.Install(p, data, prot, now)
	} else if mode == wire.Write && sn.m.Prot(p) == mmu.ReadOnly {
		sn.m.Upgrade(p, now)
	}
	e.send(int(sn.meta.Library), &Msg{Kind: kConfirm, Mode: mode, Seg: int32(sn.meta.ID), Page: page})
	if mode == wire.Write {
		sn.outW[page] = false
		sn.outR[page] = false
	} else {
		sn.outR[page] = false
	}
	e.wakeWaiters(sn, page)
}

func (e *Engine) handleReleaseDone(sn *segNode, m *Msg) {
	p := int(m.Page)
	if sn.m.Present(p) {
		sn.m.Invalidate(p)
	}
	sn.releasesPending--
	if sn.releasesPending == 0 {
		sn.m.Open()
		for page := range sn.waiters {
			e.wakeWaiters(sn, page)
		}
	}
}

// Paper-cost sanity: the IVY engine uses the same vaxmodel charges.
var _ = vaxmodel.PageSize

// FaultError implements ipc.DSM; the IVY baseline has no failure
// model, so accesses never surface degraded-grant errors.
func (e *Engine) FaultError(seg, page int32) error { return nil }

// RecordOp implements ipc.DSM; the IVY baseline does not emit the
// coherence checker's op events.
func (e *Engine) RecordOp(seg, page int32, off int, write bool, b []byte) {}
