package ivy

import (
	"time"

	"mirage/internal/core"
	"mirage/internal/mem"
	"mirage/internal/mmu"
	"mirage/internal/wire"
)

// requester is the half of an IVY site that both engines share: the
// segment table, each page's blocked faults and outstanding request,
// the holder's install and invalidate steps, and a release's
// bookkeeping. Engine and Dynamic embed it and add where a request
// goes, what each message costs, and their manager or owner half.
type requester struct {
	env   core.Env
	site  int
	segs  map[int32]*segNode
	stats Stats
	costs core.Costs

	// attached, when set, gives a newly registered segment the
	// engine's own per-page records.
	attached func(sn *segNode)
}

// reqPage is one page's requester record.
type reqPage struct {
	waiters    []func() // faults blocked on the page
	outR, outW bool     // a read or write request is outstanding
}

type segNode struct {
	meta *mem.Segment
	m    *mmu.Seg
	reqs []reqPage

	mgr []mgrPage // centralized engine: non-nil at the manager site
	dyn []dynPage // dynamic engine: this site's view of each page

	releasesPending int
}

func newRequester(env core.Env, attached func(sn *segNode)) requester {
	return requester{
		env:      env,
		site:     env.Site(),
		segs:     make(map[int32]*segNode),
		costs:    core.DefaultCosts(),
		attached: attached,
	}
}

// Stats returns a snapshot of the counters.
func (r *requester) Stats() Stats { return r.stats }

// AttachSegment registers the segment here (the creating site already
// has it).
func (r *requester) AttachSegment(meta *mem.Segment) { r.register(meta) }

func (r *requester) register(meta *mem.Segment) *segNode {
	if sn, ok := r.segs[int32(meta.ID)]; ok {
		return sn
	}
	sn := &segNode{
		meta: meta,
		m:    mmu.NewSeg(meta.Pages, meta.PageSize),
		reqs: make([]reqPage, meta.Pages),
	}
	if r.attached != nil {
		r.attached(sn)
	}
	r.segs[int32(meta.ID)] = sn
	return sn
}

// create registers a segment at its creating site, which starts out
// holding every page writable.
func (r *requester) create(meta *mem.Segment) *segNode {
	sn := r.register(meta)
	now := r.env.Now()
	for p := 0; p < meta.Pages; p++ {
		sn.m.Install(p, nil, mmu.ReadWrite, now)
	}
	return sn
}

// DestroySegment drops all local state and wakes pending waiters, in
// page order.
func (r *requester) DestroySegment(id int32) {
	sn, ok := r.segs[id]
	if !ok {
		return
	}
	delete(r.segs, id)
	sn.m.Close() // for good: an attach may outlive the segment
	r.wakeAll(sn)
}

// Seg returns the site's page table for a segment (nil if it is not
// attached here): where the access layer checks and holds a page.
func (r *requester) Seg(id int32) *mmu.Seg {
	sn, ok := r.segs[id]
	if !ok {
		return nil
	}
	return sn.m
}

// fault counts a local fault and queues its wake behind the page. It
// returns the request the page needs, or kInvalid when an outstanding
// one already covers it (or the segment is gone: the fault then wakes
// at once).
func (r *requester) fault(seg, page int32, write bool, wake func()) (*segNode, kind) {
	sn, ok := r.segs[seg]
	if !ok {
		r.env.Exec(0, wake)
		return nil, kInvalid
	}
	if write {
		r.stats.WriteFaults++
	} else {
		r.stats.ReadFaults++
	}
	rp := &sn.reqs[page]
	rp.waiters = append(rp.waiters, wake)
	switch {
	case write && !rp.outW:
		rp.outW = true
		return sn, kWriteReq
	case !write && !rp.outR && !rp.outW:
		rp.outR = true
		return sn, kReadReq
	}
	return nil, kInvalid
}

// request sends a k request for page to site to, after charging cost.
func (r *requester) request(seg, page int32, k kind, to int, cost time.Duration) {
	r.stats.RequestsSent++
	m := &Msg{Kind: k, Seg: seg, Page: page, Req: int32(r.site)}
	r.env.Exec(cost, func() { r.send(to, m) })
}

func (r *requester) send(to int, m *Msg) {
	m.From = int32(r.site)
	r.env.Send(to, m)
}

// deliver runs handle on m after charging cost, which a message from
// this site does not pay. A message for a segment destroyed meanwhile
// is a straggler and is dropped.
func (r *requester) deliver(m *Msg, cost time.Duration, handle func(*segNode, *Msg)) {
	if int(m.From) == r.site {
		cost = 0
	}
	r.env.Exec(cost, func() {
		if sn, ok := r.segs[m.Seg]; ok {
			handle(sn, m)
		}
	})
}

func (r *requester) wakeWaiters(sn *segNode, page int32) {
	rp := &sn.reqs[page]
	ws := rp.waiters
	rp.waiters = nil
	for _, w := range ws {
		w()
	}
}

// wakeAll wakes every blocked fault on the segment, in page order.
func (r *requester) wakeAll(sn *segNode) {
	for p := range sn.reqs {
		r.wakeWaiters(sn, int32(p))
	}
}

// granted clears the request a mode grant answers and wakes the page's
// blocked faults.
func (r *requester) granted(sn *segNode, page int32, mode wire.Mode) {
	rp := &sn.reqs[page]
	rp.outR = false
	if mode == wire.Write {
		rp.outW = false
	}
	r.wakeWaiters(sn, page)
}

// install maps a received page: writable under a write grant,
// read-only under a read grant.
func (r *requester) install(sn *segNode, page int32, data []byte, mode wire.Mode) {
	p := int(page)
	prot := mmu.ReadOnly
	if mode == wire.Write {
		prot = mmu.ReadWrite
	}
	if sn.m.Present(p) {
		sn.m.Invalidate(p)
	}
	sn.m.Install(p, data, prot, r.env.Now())
}

// invalidate obeys an invalidation order: it drops the copy unless
// keep, and acknowledges either way.
func (r *requester) invalidate(sn *segNode, m *Msg, keep bool) {
	r.stats.Invalidations++
	if p := int(m.Page); sn.m.Present(p) && !keep {
		sn.m.Invalidate(p)
	}
	r.send(int(m.From), &Msg{Kind: kInvAck, Seg: m.Seg, Page: m.Page})
}

// sendInvalidates orders every site in targets to drop its copy of
// page and returns the number of acknowledgements to await.
func (r *requester) sendInvalidates(sn *segNode, page int32, targets mmu.Copyset) int {
	targets.ForEach(func(s int) {
		r.send(s, &Msg{Kind: kInvalidate, Seg: int32(sn.meta.ID), Page: page})
	})
	return targets.Count()
}

// release returns this site's copies on the last local detach: the
// segment closes, give runs for each page, and the segment reopens
// once the creating site has confirmed every page sent home.
func (r *requester) release(seg int32, give func(sn *segNode, p int)) {
	sn, ok := r.segs[seg]
	if !ok || sn.meta.Library == r.site {
		return
	}
	sn.m.Close()
	for p := 0; p < sn.m.Pages(); p++ {
		give(sn, p)
	}
	if sn.releasesPending == 0 {
		sn.m.Open()
	}
}

// sendHome returns page p, its data and cs, to the creating site and
// awaits the confirmation.
func (r *requester) sendHome(sn *segNode, p int, cs mmu.Copyset) {
	sn.releasesPending++
	r.send(sn.meta.Library, &Msg{
		Kind: kRelease, Seg: int32(sn.meta.ID), Page: int32(p), Copyset: cs,
		Data: append([]byte(nil), sn.m.Frame(p)...),
	})
}

// releaseDone takes the creating site's confirmation of a page sent
// home; the last one reopens the segment and wakes its blocked faults.
func (r *requester) releaseDone(sn *segNode, page int32) {
	if p := int(page); sn.m.Present(p) {
		sn.m.Invalidate(p)
	}
	sn.releasesPending--
	if sn.releasesPending == 0 {
		sn.m.Open()
		r.wakeAll(sn)
	}
}

// adopt installs a page returned to the creating site, writable only
// when no other site keeps a read copy (rest), and returns the page's
// new copy set.
func (r *requester) adopt(sn *segNode, page int32, data []byte, rest mmu.Copyset) mmu.Copyset {
	prot := mmu.ReadWrite
	if !rest.Remove(r.site).Empty() {
		prot = mmu.ReadOnly
	}
	if p := int(page); sn.m.Present(p) {
		sn.m.Invalidate(p)
	}
	sn.m.Install(int(page), data, prot, r.env.Now())
	return rest.Add(r.site)
}

// FaultError implements ipc.DSM; the IVY baselines have no failure
// model, so accesses never surface degraded-grant errors.
func (r *requester) FaultError(seg, page int32) error { return nil }

// RecordOp implements ipc.DSM; the IVY baselines do not emit the
// coherence checker's op events.
func (r *requester) RecordOp(seg, page int32, off int, write bool, b []byte) {}
