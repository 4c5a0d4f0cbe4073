package core

import (
	"fmt"

	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/wire"
)

// ReleaseSegment returns this site's page copies to the library when
// the last local process detaches the segment. The site keeps serving
// protocol traffic for pages it still holds until the library confirms
// each release (the release is queued behind any grant cycles already
// targeting this site as a holder); local accesses fault for the
// duration so a racing re-attach refetches coherent copies.
//
// At the library site itself this is a no-op: the library is the
// segment's home.
func (e *Engine) ReleaseSegment(seg int32) {
	sn, ok := e.segs[seg]
	if !ok {
		return
	}
	if sn.curLib == e.site {
		return
	}
	sn.m.Close()
	e.shipCopies(sn, true)
}

// shipCopies sends every copy this site holds home to the current
// library as a release to be confirmed, and reopens the page table at
// once if there is none. surrender traces each: trace-wise a copy is
// surrendered the moment it first ships home — the frame stays installed
// only to serve grant cycles already in flight, and the detached process
// can never touch it again — so a re-issue under a new epoch is silent.
func (e *Engine) shipCopies(sn *segNode, surrender bool) {
	seg := int32(sn.meta.ID)
	for p := 0; p < sn.m.Pages(); p++ {
		if !sn.m.Present(p) {
			continue
		}
		sn.releasesPending++
		kind := wire.KReleaseRead
		if sn.m.Prot(p) == mmu.ReadWrite {
			kind = wire.KReleaseWrite
		}
		// Read copies carry data too: if this site turns out to be the
		// last holder, the library reinstalls from it.
		e.send(sn.curLib, &wire.Msg{
			Kind: kind, Seg: seg, Page: int32(p),
			Data: append([]byte(nil), sn.m.Frame(p)...),
		})
		if surrender {
			e.emit(obs.Event{Type: obs.EvPageState, Seg: seg, Page: int32(p)})
		}
	}
	if sn.releasesPending == 0 {
		sn.m.Open()
	}
}

// libProcessRelease runs at the library when a queued release reaches
// the head of a page's queue (never while a grant cycle is in flight).
func (e *Engine) libProcessRelease(sn *segNode, page int32, r libReq) {
	p := &sn.lib.pages[page]
	seg := int32(sn.meta.ID)
	mutated := true
	handoffTo := -1
	var handoff *wire.Msg
	switch {
	case r.site == p.writer:
		// The writer hands its (only) copy home: the library becomes
		// writer and clock site again.
		e.libReclaim(sn, page, r.data)
	case p.readers.Has(r.site):
		p.readers = p.readers.Remove(r.site)
		if p.readers.Empty() && p.writer == mmu.NoWriter {
			// Last copy anywhere: reinstall at the library. With no
			// writer outstanding every read copy is current.
			e.libReclaim(sn, page, r.data)
		} else if p.clock == r.site {
			// Hand the clock role to a remaining reader, preferring
			// the library itself.
			nc := e.site
			if !p.readers.Has(e.site) {
				nc = p.readers.Sites()[0]
			}
			p.clock = nc
			handoffTo = nc
			handoff = &wire.Msg{
				Kind: wire.KClockHandoff, Seg: seg, Page: page,
				Readers: p.readers,
			}
		}
	default:
		// Stale: an intervening cycle already removed this holder.
		mutated = false
	}
	done := &wire.Msg{Kind: wire.KReleaseDone, Seg: seg, Page: page}
	confirm := func() {
		if handoff != nil {
			e.send(handoffTo, handoff)
		}
		e.send(r.site, done)
	}
	if mutated && e.replActive(sn) {
		// The released copy is unrecoverable the moment the holder hears
		// KReleaseDone, so the confirmation waits for the record change
		// to be quorum-durable — otherwise an elected successor could
		// grant from a record still naming the departed holder.
		e.replAppend(sn, &replEntry{post: p.logged()}, func() {
			if e.live(sn) && sn.lib != nil {
				confirm()
			}
		})
		return
	}
	confirm()
}

// libReclaim reinstalls a returned page at the library site.
func (e *Engine) libReclaim(sn *segNode, page int32, data []byte) {
	p := &sn.lib.pages[page]
	if data == nil {
		if e.rel == nil {
			panic(fmt.Sprintf("core: site %d: reclaim of page %d with no data", e.site, page))
		}
		// Every recorded copy is gone and nothing came home: the page
		// content is unrecoverable. Zero-fill (install's nil) rather than
		// wedge the page forever, and account for it honestly.
		e.count(obs.CLost)
	}
	e.install(sn, page, data, mmu.ReadWrite, mmu.Copyset{}, 0, 0)
	p.writer = e.site
	p.readers = mmu.Copyset{}
	p.clock = e.site
	e.replAppendSet(sn, page)
}

// handleReleaseDone finalizes one page release at the departing site.
func (e *Engine) handleReleaseDone(sn *segNode, m *wire.Msg) {
	if sn.releasesPending == 0 {
		if e.rel == nil {
			panic(fmt.Sprintf("core: site %d: excess release-done: %v", e.site, m))
		}
		// Confirmation of a record-correction release (handleAlready),
		// not of a segment release. A fresh copy the subsequent request
		// earned may already be installed here (the clock's page send
		// travels a different circuit): leave it alone.
		return
	}
	// The surrender was already traced when the release shipped
	// (ReleaseSegment); this just frees the frame.
	e.drop(sn, m.Page, 0, false)
	sn.releasesPending--
	if sn.releasesPending == 0 {
		sn.m.Open()
		e.wakeAll(sn) // a re-attach may have queued faults while releasing
	}
}
