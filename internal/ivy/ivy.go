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

	"mirage/internal/core"
	"mirage/internal/mem"
	"mirage/internal/mmu"
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
	Copyset mmu.Copyset // dynamic manager: copy set shipped with ownership
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

// mgrPage is the manager's per-page record.
type mgrPage struct {
	owner   int
	copyset mmu.Copyset // read-copy holders, including the owner
	busy    bool
	waitInv int
	grant   *Msg   // the request being served
	queue   []*Msg // requests and releases awaiting the page
}

// Engine is one site's IVY protocol instance. It implements the same
// DSM surface as the Mirage engine and plugs into ipc.Config.NewDSM.
type Engine struct{ requester }

// New creates an IVY engine on env.
func New(env core.Env) *Engine { return &Engine{newRequester(env, nil)} }

// CreateSegment initializes manager state at the creating site.
func (e *Engine) CreateSegment(meta *mem.Segment) {
	sn := e.create(meta)
	sn.mgr = make([]mgrPage, meta.Pages)
	for p := range sn.mgr {
		sn.mgr[p] = mgrPage{owner: e.site, copyset: mmu.CopysetOf(e.site)}
	}
}

// Fault requests page access for a local process: the request goes to
// the manager, at the cost of a local fault when this site is it.
func (e *Engine) Fault(seg, page int32, write bool, pid int32, wake func()) {
	sn, k := e.fault(seg, page, write, wake)
	if k == kInvalid {
		return
	}
	cost := e.costs.Request
	if sn.meta.Library == e.site {
		cost = e.costs.LocalFault
	}
	e.request(seg, page, k, sn.meta.Library, cost)
}

// ReleaseSegment returns this site's copies to the manager on the last
// local detach.
func (e *Engine) ReleaseSegment(seg int32) {
	e.release(seg, func(sn *segNode, p int) {
		if sn.m.Present(p) {
			e.sendHome(sn, p, mmu.Copyset{})
		}
	})
}

// Deliver injects a received protocol message.
func (e *Engine) Deliver(payload any) {
	m := payload.(*Msg)
	cost := e.costs.Input
	switch m.Kind {
	case kReadReq, kWriteReq, kConfirm, kInvAck, kRelease:
		cost = e.costs.Server
	case kPage:
		cost = e.costs.Install
	}
	e.deliver(m, cost, e.handle)
}

func (e *Engine) handle(sn *segNode, m *Msg) {
	switch m.Kind {
	case kReadReq, kWriteReq, kRelease:
		e.mgrEnqueue(sn, m)
	case kForward:
		e.handleForward(sn, m)
	case kInvalidate:
		e.invalidate(sn, m, false)
	case kInvAck:
		e.mgrInvAck(sn, m)
	case kPage:
		e.stats.PagesReceived++
		e.installPage(sn, m.Page, m.Data, m.Mode)
	case kConfirm:
		e.mgrConfirm(sn, m)
	case kReleaseDone:
		e.releaseDone(sn, m.Page)
	default:
		panic(fmt.Sprintf("ivy: site %d: unhandled %v", e.site, m))
	}
}

// --- manager side ---

func (e *Engine) mgrEnqueue(sn *segNode, m *Msg) {
	if sn.mgr == nil {
		panic(fmt.Sprintf("ivy: site %d is not the manager for %v", e.site, m))
	}
	mp := &sn.mgr[m.Page]
	mp.queue = append(mp.queue, m)
	e.mgrProcess(sn, m.Page)
}

func (e *Engine) mgrProcess(sn *segNode, page int32) {
	mp := &sn.mgr[page]
	for !mp.busy && len(mp.queue) > 0 {
		r := mp.queue[0]
		mp.queue = mp.queue[1:]
		switch r.Kind {
		case kRelease:
			e.mgrRelease(sn, page, r)
		case kReadReq:
			mp.busy = true
			mp.grant = r
			e.send(mp.owner, &Msg{Kind: kForward, Mode: wire.Read, Seg: int32(sn.meta.ID), Page: page, Req: r.From})
		case kWriteReq:
			mp.busy = true
			mp.grant = r
			// Invalidate every copy except the owner's (the owner
			// discards when it forwards) and the requester's own
			// (overwritten by the incoming page; basic IVY ships the
			// data even to a requester that held a read copy).
			mp.waitInv = e.sendInvalidates(sn, page, mp.copyset.Remove(mp.owner).Remove(int(r.From)))
			if mp.waitInv == 0 {
				e.mgrForwardWrite(sn, page)
			}
		}
	}
}

func (e *Engine) mgrForwardWrite(sn *segNode, page int32) {
	mp := &sn.mgr[page]
	e.send(mp.owner, &Msg{
		Kind: kForward, Mode: wire.Write, Seg: int32(sn.meta.ID), Page: page,
		Req: mp.grant.From,
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
	if site := int(mp.grant.From); mp.grant.Kind == kWriteReq {
		mp.owner = site
		mp.copyset = mmu.CopysetOf(site)
	} else {
		mp.copyset = mp.copyset.Add(site)
	}
	mp.busy = false
	mp.grant = nil
	e.mgrProcess(sn, m.Page)
}

func (e *Engine) mgrRelease(sn *segNode, page int32, r *Msg) {
	mp := &sn.mgr[page]
	site := int(r.From)
	switch {
	case mp.owner == site:
		// Owner going away: the manager takes the page home. Other
		// read copies may remain, so the reinstalled home copy is
		// writable only when none do.
		mp.owner = e.site
		mp.copyset = e.adopt(sn, page, r.Data, mp.copyset.Remove(site))
	case mp.copyset.Has(site):
		mp.copyset = mp.copyset.Remove(site)
	}
	e.send(site, &Msg{Kind: kReleaseDone, Seg: int32(sn.meta.ID), Page: page})
}

// --- holder side ---

// handleForward runs at the page owner.
func (e *Engine) handleForward(sn *segNode, m *Msg) {
	e.stats.Forwards++
	p := int(m.Page)
	if !sn.m.Present(p) {
		panic(fmt.Sprintf("ivy: site %d: forward for absent page %v", e.site, m))
	}
	data := append([]byte(nil), sn.m.Frame(p)...)
	if m.Mode == wire.Write {
		// Ownership moves; this copy dies (write-invalidate).
		sn.m.Invalidate(p)
	} else if sn.m.Prot(p) == mmu.ReadWrite {
		// Owner keeps a read copy on a read forward.
		sn.m.Downgrade(p, e.env.Now())
	}
	if int(m.Req) == e.site {
		// Forward back to self (manager colocations); install directly.
		e.installPage(sn, m.Page, data, m.Mode)
		return
	}
	e.stats.PagesSent++
	e.send(int(m.Req), &Msg{Kind: kPage, Mode: m.Mode, Seg: m.Seg, Page: m.Page, Req: m.Req, Data: data})
}

// installPage maps a granted page and confirms the transfer to the
// manager.
func (e *Engine) installPage(sn *segNode, page int32, data []byte, mode wire.Mode) {
	e.install(sn, page, data, mode)
	e.send(sn.meta.Library, &Msg{Kind: kConfirm, Mode: mode, Seg: int32(sn.meta.ID), Page: page})
	e.granted(sn, page, mode)
}
