package ivy

import (
	"fmt"
	"time"

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
type Dynamic struct {
	env   core.Env
	site  int
	segs  map[int32]*dynSeg
	stats Stats
	costs core.Costs
}

// dynPage is one page's state at one site.
type dynPage struct {
	probOwner int
	owner     bool
	copyset   siteMask // meaningful only while owner
	busy      bool     // owner collecting invalidation acks
	queue     []*Msg   // requests awaiting the owner
	waitInv   int      // outstanding invalidation acks
	grantUp   bool     // the ack completion upgrades this site in place
}

type dynSeg struct {
	meta  *mem.Segment
	m     *mmu.Seg
	pages []dynPage

	waiters map[int32][]func()
	outR    map[int32]bool
	outW    map[int32]bool

	releasesPending int
}

// NewDynamic creates a dynamic-manager engine on env.
func NewDynamic(env core.Env) *Dynamic {
	return &Dynamic{
		env:   env,
		site:  env.Site(),
		segs:  make(map[int32]*dynSeg),
		costs: core.DefaultCosts(),
	}
}

// Stats returns a snapshot of the counters.
func (e *Dynamic) Stats() Stats { return e.stats }

// CreateSegment initializes the creating site as initial owner of all
// pages.
func (e *Dynamic) CreateSegment(meta *mem.Segment) {
	sn := e.register(meta)
	now := e.env.Now()
	for p := 0; p < meta.Pages; p++ {
		sn.m.Install(p, nil, mmu.ReadWrite, now)
		sn.pages[p].owner = true
		sn.pages[p].probOwner = e.site
		sn.pages[p].copyset = maskOf(e.site)
	}
}

// AttachSegment registers the segment here; the initial probOwner hint
// is the creating site.
func (e *Dynamic) AttachSegment(meta *mem.Segment) { e.register(meta) }

func (e *Dynamic) register(meta *mem.Segment) *dynSeg {
	if sn, ok := e.segs[int32(meta.ID)]; ok {
		return sn
	}
	sn := &dynSeg{
		meta:    meta,
		m:       mmu.NewSeg(meta.Pages, meta.PageSize),
		pages:   make([]dynPage, meta.Pages),
		waiters: make(map[int32][]func()),
		outR:    make(map[int32]bool),
		outW:    make(map[int32]bool),
	}
	for p := range sn.pages {
		sn.pages[p].probOwner = meta.Library
	}
	e.segs[int32(meta.ID)] = sn
	return sn
}

// DestroySegment drops local state and wakes waiters.
func (e *Dynamic) DestroySegment(id int32) {
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
func (e *Dynamic) Seg(id int32) *mmu.Seg {
	sn, ok := e.segs[id]
	if !ok {
		return nil
	}
	return sn.m
}

func (e *Dynamic) send(to int, m *Msg) {
	m.From = int32(e.site)
	e.env.Send(to, m)
}

// Fault requests page access for a local process.
func (e *Dynamic) Fault(seg, page int32, write bool, pid int32, wake func()) {
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

	dp := &sn.pages[page]
	if write && dp.owner {
		// Owner upgrading its own (read-only) copy: no forwarding —
		// invalidate the copy set directly, in place.
		if !sn.outW[page] {
			sn.outW[page] = true
			e.env.Exec(e.costs.LocalFault, func() { e.ownerLocalUpgrade(sn, page) })
		}
		return
	}
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
	m := &Msg{Kind: k, Seg: seg, Page: page, Req: int32(e.site)}
	to := dp.probOwner
	e.env.Exec(e.costs.Request, func() { e.send(to, m) })
}

func (e *Dynamic) wakeWaiters(sn *dynSeg, page int32) {
	ws := sn.waiters[page]
	if len(ws) == 0 {
		return
	}
	delete(sn.waiters, page)
	for _, w := range ws {
		w()
	}
}

// Deliver injects a received message.
func (e *Dynamic) Deliver(payload any) {
	m := payload.(*Msg)
	cost := time.Duration(0)
	if int(m.From) != e.site {
		switch m.Kind {
		case kPage:
			cost = e.costs.Install
		default:
			cost = e.costs.Input
		}
	}
	e.env.Exec(cost, func() { e.handle(m) })
}

func (e *Dynamic) handle(m *Msg) {
	sn, ok := e.segs[m.Seg]
	if !ok {
		return // straggler after destroy
	}
	switch m.Kind {
	case kReadReq, kWriteReq:
		e.handleRequest(sn, m)
	case kInvalidate:
		e.handleDynInvalidate(sn, m)
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
func (e *Dynamic) handleRequest(sn *dynSeg, m *Msg) {
	dp := &sn.pages[m.Page]
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
func (e *Dynamic) serveAsOwner(sn *dynSeg, m *Msg) {
	dp := &sn.pages[m.Page]
	p := int(m.Page)
	req := int(m.Req)
	now := e.env.Now()
	if m.Kind == kReadReq {
		if req == e.site {
			// Stale self-request; our copy is valid.
			e.finishLocal(sn, m.Page, wire.Read)
			return
		}
		if sn.m.Prot(p) == mmu.ReadWrite {
			sn.m.Downgrade(p, now)
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
	dp.copyset = 0
	dp.probOwner = req
	e.stats.PagesSent++
	e.send(req, &Msg{
		Kind: kPage, Mode: wire.Write, Seg: m.Seg, Page: m.Page, Req: m.Req,
		Copyset: uint64(cs), Data: data,
	})
	// Requests queued behind this grant chase the new owner.
	e.drainQueue(sn, m.Page)
}

// ownerLocalUpgrade invalidates the copy set and upgrades the owner's
// own copy in place.
func (e *Dynamic) ownerLocalUpgrade(sn *dynSeg, page int32) {
	dp := &sn.pages[page]
	if !dp.owner {
		// Ownership moved before the local upgrade ran; refault via
		// the normal path.
		sn.outW[page] = false
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
	targets := dp.copyset.Remove(e.site)
	if targets.Empty() {
		e.finishOwnerUpgrade(sn, page)
		return
	}
	dp.busy = true
	dp.grantUp = true
	dp.waitInv = targets.Count()
	targets.ForEach(func(s int) {
		e.send(s, &Msg{Kind: kInvalidate, Seg: int32(sn.meta.ID), Page: page})
	})
}

func (e *Dynamic) finishOwnerUpgrade(sn *dynSeg, page int32) {
	dp := &sn.pages[page]
	now := e.env.Now()
	if sn.m.Prot(int(page)) == mmu.ReadOnly {
		sn.m.Upgrade(int(page), now)
	}
	dp.copyset = maskOf(e.site)
	dp.busy = false
	dp.grantUp = false
	e.finishLocal(sn, page, wire.Write)
	e.drainQueue(sn, page)
}

// finishLocal completes a locally-satisfied fault.
func (e *Dynamic) finishLocal(sn *dynSeg, page int32, mode wire.Mode) {
	if mode == wire.Write {
		sn.outW[page] = false
		sn.outR[page] = false
	} else {
		sn.outR[page] = false
	}
	e.wakeWaiters(sn, page)
}

// handleDynPage installs a granted page; write grants carry ownership
// and the copy set to invalidate.
func (e *Dynamic) handleDynPage(sn *dynSeg, m *Msg) {
	e.stats.PagesReceived++
	dp := &sn.pages[m.Page]
	p := int(m.Page)
	now := e.env.Now()
	if m.Mode == wire.Read {
		if sn.m.Present(p) {
			sn.m.Invalidate(p)
		}
		sn.m.Install(p, m.Data, mmu.ReadOnly, now)
		dp.probOwner = int(m.From)
		e.finishLocal(sn, m.Page, wire.Read)
		e.drainQueue(sn, m.Page)
		return
	}
	// Ownership arrives.
	if sn.m.Present(p) {
		sn.m.Invalidate(p)
	}
	sn.m.Install(p, m.Data, mmu.ReadWrite, now)
	dp.owner = true
	dp.probOwner = e.site
	dp.copyset = maskOf(e.site)
	targets := siteMask(m.Copyset).Remove(e.site)
	if targets.Empty() {
		e.finishLocal(sn, m.Page, wire.Write)
		e.drainQueue(sn, m.Page)
		return
	}
	dp.busy = true
	dp.grantUp = true
	dp.waitInv = targets.Count()
	targets.ForEach(func(s int) {
		e.send(s, &Msg{Kind: kInvalidate, Seg: m.Seg, Page: m.Page})
	})
}

func (e *Dynamic) handleDynInvalidate(sn *dynSeg, m *Msg) {
	e.stats.Invalidations++
	p := int(m.Page)
	if sn.m.Present(p) && !sn.pages[m.Page].owner {
		sn.m.Invalidate(p)
	}
	e.send(int(m.From), &Msg{Kind: kInvAck, Seg: m.Seg, Page: m.Page})
}

func (e *Dynamic) handleDynInvAck(sn *dynSeg, m *Msg) {
	dp := &sn.pages[m.Page]
	if !dp.busy || dp.waitInv <= 0 {
		panic(fmt.Sprintf("ivy/dynamic: site %d: unexpected inv-ack %v", e.site, m))
	}
	dp.waitInv--
	if dp.waitInv == 0 {
		e.finishOwnerUpgrade(sn, m.Page)
	}
}

// drainQueue re-dispatches requests parked at this site.
func (e *Dynamic) drainQueue(sn *dynSeg, page int32) {
	dp := &sn.pages[page]
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
	sn, ok := e.segs[seg]
	if !ok || sn.meta.Library == e.site {
		return
	}
	sn.m.Close()
	for p := 0; p < sn.m.Pages(); p++ {
		dp := &sn.pages[p]
		if dp.owner {
			sn.releasesPending++
			e.send(sn.meta.Library, &Msg{
				Kind: kRelease, Seg: seg, Page: int32(p),
				Copyset: uint64(dp.copyset.Remove(e.site)),
				Data:    append([]byte(nil), sn.m.Frame(p)...),
			})
		} else if sn.m.Present(p) {
			sn.m.Invalidate(p)
		}
	}
	if sn.releasesPending == 0 {
		sn.m.Open()
	}
}

// handleDynRelease runs at the creating site: it adopts ownership of a
// released page.
func (e *Dynamic) handleDynRelease(sn *dynSeg, m *Msg) {
	dp := &sn.pages[m.Page]
	p := int(m.Page)
	now := e.env.Now()
	if sn.m.Present(p) {
		sn.m.Invalidate(p)
	}
	cs := siteMask(m.Copyset).Remove(int(m.From))
	prot := mmu.ReadWrite
	if !cs.Remove(e.site).Empty() {
		prot = mmu.ReadOnly
	}
	sn.m.Install(p, m.Data, prot, now)
	dp.owner = true
	dp.probOwner = e.site
	dp.copyset = cs.Add(e.site)
	e.send(int(m.From), &Msg{Kind: kReleaseDone, Seg: m.Seg, Page: m.Page})
	e.drainQueue(sn, m.Page)
}

func (e *Dynamic) handleDynReleaseDone(sn *dynSeg, m *Msg) {
	p := int(m.Page)
	if sn.m.Present(p) {
		sn.m.Invalidate(p)
	}
	dp := &sn.pages[m.Page]
	dp.owner = false
	dp.copyset = 0
	dp.probOwner = sn.meta.Library
	sn.releasesPending--
	if sn.releasesPending == 0 {
		sn.m.Open()
		for page := range sn.waiters {
			e.wakeWaiters(sn, page)
		}
	}
}

// FaultError implements ipc.DSM; the dynamic-manager baseline has no
// failure model, so accesses never surface degraded-grant errors.
func (d *Dynamic) FaultError(seg, page int32) error { return nil }

// RecordOp implements ipc.DSM; the dynamic-manager baseline does not
// emit the coherence checker's op events.
func (d *Dynamic) RecordOp(seg, page int32, off int, write bool, b []byte) {}
