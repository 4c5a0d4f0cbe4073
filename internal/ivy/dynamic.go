package ivy

import (
	"fmt"

	"mirage/internal/core"
	"mirage/internal/mem"
	"mirage/internal/mmu"
	"mirage/internal/wire"
)

// Dynamic implements Li & Hudak's *dynamic distributed manager*
// algorithm, their best-performing design: there is no manager at all.
// Every site keeps a per-page probable-owner hint (probOwner);
// requests are forwarded along the hint chain until they reach the
// true owner, and each hop updates its hint toward the requester, so
// chains stay short. Ownership travels with write grants, carrying the
// copy set; the new owner invalidates the copies itself.
//
// It plugs into ipc.Config.NewDSM like the centralized Engine and the
// Mirage engine, so the three protocols are directly comparable on the
// identical substrate.
type Dynamic struct{ requester }

// dynPage is one page's state at one site.
type dynPage struct {
	probOwner int
	owner     bool
	copyset   mmu.Copyset // meaningful only while owner
	busy      bool        // owner collecting invalidation acks
	queue     []*Msg      // requests awaiting the owner
	waitInv   int         // outstanding invalidation acks
}

// NewDynamic creates a dynamic-manager engine on env.
func NewDynamic(env core.Env) *Dynamic {
	return &Dynamic{newRequester(env, func(sn *segNode) {
		// The initial probOwner hint is the creating site.
		sn.dyn = make([]dynPage, sn.meta.Pages)
		for p := range sn.dyn {
			sn.dyn[p].probOwner = sn.meta.Library
		}
	})}
}

// CreateSegment initializes the creating site as initial owner of all
// pages.
func (e *Dynamic) CreateSegment(meta *mem.Segment) {
	sn := e.create(meta)
	for p := range sn.dyn {
		sn.dyn[p] = dynPage{probOwner: e.site, owner: true, copyset: mmu.CopysetOf(e.site)}
	}
}

// Fault requests page access for a local process: the request goes to
// the page's probable owner, unless this site owns the page and
// upgrades its own copy.
func (e *Dynamic) Fault(seg, page int32, write bool, pid int32, wake func()) {
	sn, k := e.fault(seg, page, write, wake)
	switch {
	case k == kInvalid:
	case k == kWriteReq && sn.dyn[page].owner:
		// Owner upgrading its own (read-only) copy: no forwarding —
		// invalidate the copy set directly, in place.
		e.env.Exec(e.costs.LocalFault, func() { e.ownerLocalUpgrade(sn, page) })
	default:
		e.request(seg, page, k, sn.dyn[page].probOwner, e.costs.Request)
	}
}

// Deliver injects a received message.
func (e *Dynamic) Deliver(payload any) {
	m := payload.(*Msg)
	cost := e.costs.Input
	if m.Kind == kPage {
		cost = e.costs.Install
	}
	e.deliver(m, cost, e.handle)
}

func (e *Dynamic) handle(sn *segNode, m *Msg) {
	switch m.Kind {
	case kReadReq, kWriteReq:
		e.handleRequest(sn, m)
	case kInvalidate:
		e.invalidate(sn, m, sn.dyn[m.Page].owner)
	case kInvAck:
		e.handleDynInvAck(sn, m)
	case kPage:
		e.handleDynPage(sn, m)
	case kRelease:
		e.handleDynRelease(sn, m)
	case kReleaseDone:
		e.handleDynReleaseDone(sn, m)
	default:
		panic(fmt.Sprintf("ivy/dynamic: site %d: unhandled %v", e.site, m))
	}
}

// handleRequest runs at any site a request reaches: the owner serves
// it, everyone else forwards along its probOwner hint (updating the
// hint toward the requester — Li & Hudak's path compression).
func (e *Dynamic) handleRequest(sn *segNode, m *Msg) {
	dp := &sn.dyn[m.Page]
	if !dp.owner {
		to := dp.probOwner
		if to == e.site || int(m.Req) == e.site {
			// Hint points at ourselves but we are not the owner: the
			// ownership we transferred is still in flight somewhere.
			// Queue until a page message fixes our state.
			dp.queue = append(dp.queue, m)
			return
		}
		// Path compression: future requests chase the requester, who
		// is about to be (or know) the owner.
		dp.probOwner = int(m.Req)
		e.send(to, m)
		return
	}
	if dp.busy {
		dp.queue = append(dp.queue, m)
		return
	}
	e.serveAsOwner(sn, m)
}

// serveAsOwner grants a request from the owning site.
func (e *Dynamic) serveAsOwner(sn *segNode, m *Msg) {
	dp := &sn.dyn[m.Page]
	p := int(m.Page)
	req := int(m.Req)
	if m.Kind == kReadReq {
		if req == e.site {
			// Stale self-request; our copy is valid.
			e.granted(sn, m.Page, wire.Read)
			return
		}
		if sn.m.Prot(p) == mmu.ReadWrite {
			sn.m.Downgrade(p, e.env.Now())
		}
		dp.copyset = dp.copyset.Add(req)
		e.stats.PagesSent++
		e.send(req, &Msg{
			Kind: kPage, Mode: wire.Read, Seg: m.Seg, Page: m.Page, Req: m.Req,
			Data: append([]byte(nil), sn.m.Frame(p)...),
		})
		return
	}
	// Write request: ownership moves to the requester along with the
	// copy set; the new owner invalidates the copies.
	if req == e.site {
		e.ownerLocalUpgrade(sn, m.Page)
		return
	}
	data := append([]byte(nil), sn.m.Frame(p)...)
	cs := dp.copyset.Remove(e.site).Remove(req)
	sn.m.Invalidate(p)
	dp.owner = false
	dp.copyset = mmu.Copyset{}
	dp.probOwner = req
	e.stats.PagesSent++
	e.send(req, &Msg{
		Kind: kPage, Mode: wire.Write, Seg: m.Seg, Page: m.Page, Req: m.Req,
		Copyset: cs, Data: data,
	})
	// Requests queued behind this grant chase the new owner.
	e.drainQueue(sn, m.Page)
}

// ownerLocalUpgrade invalidates the copy set and upgrades the owner's
// own copy in place.
func (e *Dynamic) ownerLocalUpgrade(sn *segNode, page int32) {
	dp := &sn.dyn[page]
	if !dp.owner {
		// Ownership moved before the local upgrade ran; refault via
		// the normal path.
		sn.reqs[page].outW = false
		e.wakeWaiters(sn, page)
		return
	}
	if dp.busy {
		// A grant cycle is in flight; queue a self write request to be
		// served when it completes.
		dp.queue = append(dp.queue, &Msg{
			Kind: kWriteReq, Seg: int32(sn.meta.ID), Page: page, Req: int32(e.site),
		})
		return
	}
	e.invalidateCopies(sn, page, dp.copyset.Remove(e.site))
}

// invalidateCopies has the owner invalidate targets' copies before its
// write access completes, at once when there are none.
func (e *Dynamic) invalidateCopies(sn *segNode, page int32, targets mmu.Copyset) {
	dp := &sn.dyn[page]
	if dp.waitInv = e.sendInvalidates(sn, page, targets); dp.waitInv == 0 {
		e.finishOwnerUpgrade(sn, page)
		return
	}
	dp.busy = true
}

func (e *Dynamic) finishOwnerUpgrade(sn *segNode, page int32) {
	dp := &sn.dyn[page]
	if sn.m.Prot(int(page)) == mmu.ReadOnly {
		sn.m.Upgrade(int(page), e.env.Now())
	}
	dp.copyset = mmu.CopysetOf(e.site)
	dp.busy = false
	e.granted(sn, page, wire.Write)
	e.drainQueue(sn, page)
}

// handleDynPage installs a granted page; write grants carry ownership
// and the copy set to invalidate.
func (e *Dynamic) handleDynPage(sn *segNode, m *Msg) {
	e.stats.PagesReceived++
	dp := &sn.dyn[m.Page]
	e.install(sn, m.Page, m.Data, m.Mode)
	if m.Mode == wire.Read {
		dp.probOwner = int(m.From)
		e.granted(sn, m.Page, wire.Read)
		e.drainQueue(sn, m.Page)
		return
	}
	// Ownership arrives.
	dp.owner = true
	dp.probOwner = e.site
	dp.copyset = mmu.CopysetOf(e.site)
	e.invalidateCopies(sn, m.Page, m.Copyset.Remove(e.site))
}

func (e *Dynamic) handleDynInvAck(sn *segNode, m *Msg) {
	dp := &sn.dyn[m.Page]
	if !dp.busy || dp.waitInv <= 0 {
		panic(fmt.Sprintf("ivy/dynamic: site %d: unexpected inv-ack %v", e.site, m))
	}
	dp.waitInv--
	if dp.waitInv == 0 {
		e.finishOwnerUpgrade(sn, m.Page)
	}
}

// drainQueue re-dispatches requests parked at this site.
func (e *Dynamic) drainQueue(sn *segNode, page int32) {
	dp := &sn.dyn[page]
	q := dp.queue
	dp.queue = nil
	for _, m := range q {
		e.handleRequest(sn, m)
	}
}

// ReleaseSegment returns copies on the last local detach: read copies
// are dropped (stale copy-set entries are tolerated by unconditional
// invalidation acks); owned pages transfer ownership home to the
// creating site.
func (e *Dynamic) ReleaseSegment(seg int32) {
	e.release(seg, func(sn *segNode, p int) {
		if dp := &sn.dyn[p]; dp.owner {
			e.sendHome(sn, p, dp.copyset.Remove(e.site))
		} else if sn.m.Present(p) {
			sn.m.Invalidate(p)
		}
	})
}

// handleDynRelease runs at the creating site: it adopts ownership of a
// released page.
func (e *Dynamic) handleDynRelease(sn *segNode, m *Msg) {
	dp := &sn.dyn[m.Page]
	dp.owner = true
	dp.probOwner = e.site
	dp.copyset = e.adopt(sn, m.Page, m.Data, m.Copyset.Remove(int(m.From)))
	e.send(int(m.From), &Msg{Kind: kReleaseDone, Seg: m.Seg, Page: m.Page})
	e.drainQueue(sn, m.Page)
}

func (e *Dynamic) handleDynReleaseDone(sn *segNode, m *Msg) {
	dp := &sn.dyn[m.Page]
	dp.owner = false
	dp.copyset = mmu.Copyset{}
	dp.probOwner = sn.meta.Library
	e.releaseDone(sn, m.Page)
}
