package core

import (
	"reflect"
	"testing"
	"unsafe"

	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/wire"
)

// sitePageSurvivesEpoch names the fields of sitePage that an epoch
// change leaves alone. Everything else is cleared by the epoch reset,
// and everything by destroy.
var sitePageSurvivesEpoch = map[string]bool{
	"waiters": true, // blocked faults outlive the library they asked: the caller wakes them
}

// fillSitePage sets every field of the record, pageRel's included, by
// reflection, to something that is not its zero value. A field of a
// type it does not know fails the test, so a field cannot be added
// without the reset decision TestSitePageResetCoversEveryField asks for.
func fillSitePage(t *testing.T, sp *sitePage) {
	t.Helper()
	sp.rel = new(pageRel)
	for _, v := range []reflect.Value{reflect.ValueOf(sp).Elem(), reflect.ValueOf(sp.rel).Elem()} {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem() // fields are unexported
			switch x := f.Addr().Interface().(type) {
			case *bool:
				*x = true
			case *[]waiter:
				*x = []waiter{{wake: func() {}}}
			case *func():
				*x = func() {}
			case *error:
				*x = ErrUnreachable
			case **pendingInval:
				*x = &pendingInval{m: &wire.Msg{}} // no captured frame: nothing to roll back
			case **invalRelay:
				*x = &invalRelay{}
			case *[]byte:
				*x = []byte{1}
			case **pageRel: // filled field by field
			default:
				t.Fatalf("%v.%s: fillSitePage does not know type %v", v.Type(), v.Type().Field(i).Name, f.Type())
			}
		}
	}
}

// leftInSitePage lists the fields of the record that still hold
// something. A waiter slice that kept only its backing array holds
// nothing, and neither does the pageRel pointer itself.
func leftInSitePage(sp *sitePage) []string {
	var left []string
	for _, v := range []reflect.Value{reflect.ValueOf(sp).Elem(), reflect.ValueOf(sp.rel).Elem()} {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.Kind() == reflect.Slice && f.Len() == 0 || f.IsZero() || f.Type() == reflect.TypeOf(sp.rel) {
				continue
			}
			left = append(left, v.Type().Field(i).Name)
		}
	}
	return left
}

// TestSitePageResetCoversEveryField holds the "one struct" property:
// what the engine keeps per page is a field of sitePage, and every field
// has a decision about the two events that end in-flight state. A field
// added without one is still set after a reset and fails here.
func TestSitePageResetCoversEveryField(t *testing.T) {
	n := newTestNet(t, 2, Options{})
	n.newSeg(2, 0)
	e := n.engines[1]
	sn := e.segs[1]

	fillSitePage(t, &sn.pages[1])
	e.resetPages(sn, true, true) // what adoptEpoch and beginRecovery do
	for _, name := range leftInSitePage(&sn.pages[1]) {
		if !sitePageSurvivesEpoch[name] {
			t.Errorf("sitePage.%s survives an epoch reset and is not listed as meant to", name)
		}
	}
	for name := range sitePageSurvivesEpoch {
		if _, ok := reflect.TypeOf(sitePage{}).FieldByName(name); !ok {
			t.Errorf("survives-an-epoch list names %q, which sitePage does not have", name)
		}
	}

	fillSitePage(t, &sn.pages[1])
	e.DestroySegment(1)
	if left := leftInSitePage(&sn.pages[1]); len(left) != 0 {
		t.Errorf("fields still set after DestroySegment: %v", left)
	}
}

// reattachTrace runs one re-attach during a release at site 1 — read six
// pages, detach, write-fault on all six before the library has confirmed
// anything — and returns the trace. With lose set the library is down,
// so the release is given up rather than confirmed and the read copies
// stay. Either way the site's page table re-opens with faults blocked on
// six pages that still cannot be written, and the order they are woken
// in is the order of the fault events that follow.
func reattachTrace(t *testing.T, lose bool) []obs.Event {
	const pages = 6
	opt := Options{Obs: &obs.Obs{Tracer: obs.NewBuffer()}}
	if lose {
		opt.Reliability = &Reliability{}
	}
	n := newTestNet(t, 2, opt)
	n.newSeg(pages, 0)
	e := n.engines[1]
	for p := int32(0); p < pages; p++ {
		n.acquire(1, 1, p, false)
	}
	n.settle()
	n.down[0] = lose
	e.ReleaseSegment(1)
	for p := int32(0); p < pages; p++ {
		var loop func()
		loop = func() {
			if e.FaultError(1, p) == nil && e.CheckAccess(1, p, true) != mmu.NoFault {
				e.Fault(1, p, true, 101, loop)
			}
		}
		loop()
	}
	if got := len(e.segs[1].pages[pages-1].waiters); got != 1 {
		t.Fatalf("page %d has %d blocked faults after the re-attach, want 1", pages-1, got)
	}
	n.settle()
	if e.Seg(1).Closed() {
		t.Fatal("page table still closed after the release settled")
	}
	return opt.Obs.Buffer().Events()
}

// TestReattachWakesInPageOrder: the two places that re-open a released
// segment's page table woke its blocked faults in Go map order, so the
// same run traced differently from one execution to the next.
func TestReattachWakesInPageOrder(t *testing.T) {
	for _, lose := range []bool{false, true} {
		want := reattachTrace(t, lose)
		for run := 1; run < 32; run++ {
			if got := reattachTrace(t, lose); !reflect.DeepEqual(got, want) {
				t.Fatalf("release lost=%v: run %d traced differently from run 0 (%d vs %d events)",
					lose, run, len(got), len(want))
			}
		}
	}
}

// TestOutOfRangePageIsDropped: a page number is an index into this
// site's tables, and a peer can send any. Every kind, with pages just
// outside and far outside the segment, at a library and at a holder,
// plain and with every layer on: no panic, and the page-addressed kinds
// are counted as dropped before a handler sees them.
func TestOutOfRangePageIsDropped(t *testing.T) {
	const pages = 3
	layered := Options{Reliability: &Reliability{}, Failover: &Failover{},
		Placement: &Placement{}, Replication: &Replication{Replicas: 1}}
	for name, opt := range map[string]Options{"plain": {}, "layered": layered} {
		opt, err := opt.ForCluster(3)
		if err != nil {
			t.Fatal(err)
		}
		n := newTestNet(t, 3, opt)
		n.newSeg(pages, 0)
		n.acquire(1, 1, 0, false)
		n.settle()
		for _, k := range wire.Kinds() {
			pageAddressed := true
			switch k {
			case wire.KAck, wire.KRecover, wire.KRecoverReply, wire.KMigrate, wire.KMigrateAck,
				wire.KAppend, wire.KAppendAck, wire.KVote:
				pageAddressed = false
			}
			for _, page := range []int32{-1, pages, 1 << 30} {
				for site := 0; site < 2; site++ { // the library, a holder
					e := n.engines[site]
					before := e.Stats().Dropped
					e.Deliver(&wire.Msg{Kind: k, Seg: 1, Page: page, From: 2, Req: 2})
					n.settle()
					if got := e.Stats().Dropped - before; pageAddressed && got != 1 {
						t.Errorf("%s: %v page %d at site %d: dropped +%d, want +1", name, k, page, site, got)
					}
				}
			}
		}
	}
}
