package ivy

import (
	"reflect"
	"testing"
	"time"

	"mirage/internal/core"
	"mirage/internal/ipc"
	"mirage/internal/mem"
	"mirage/internal/wire"
)

var engines = []struct {
	name   string
	newDSM func(core.Env) ipc.DSM
}{
	{"central", func(env core.Env) ipc.DSM { return New(env) }},
	{"dynamic", func(env core.Env) ipc.DSM { return NewDynamic(env) }},
}

func TestIvyBeyond64Sites(t *testing.T) {
	// A read copy at a site past 63 is invalidated like any other: the
	// copy sets hold every site a cluster can have.
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			c := ipc.NewCluster(66, ipc.Config{NewDSM: eng.newDSM})
			c.Site(0).Spawn("creator", 0, func(p *ipc.Proc) {
				id, _ := p.Shmget(7, 512, mem.Create, rw)
				h, _ := p.Shmat(id, false)
				h.SetUint32(0, 1)
				p.Sleep(200 * time.Millisecond)
				h.SetUint32(0, 2)
				p.Sleep(time.Second)
			})
			readers := []int{63, 65}
			got := make(map[int][2]uint32)
			for _, s := range readers {
				c.Site(s).Spawn("reader", 0, func(p *ipc.Proc) {
					p.Sleep(50 * time.Millisecond)
					id, _ := p.Shmget(7, 512, 0, 0)
					h, _ := p.Shmat(id, false)
					before, _ := h.Uint32(0)
					p.Sleep(400*time.Millisecond - p.Now())
					after, _ := h.Uint32(0)
					got[s] = [2]uint32{before, after}
				})
			}
			c.Run()
			for _, s := range readers {
				if got[s] != [2]uint32{1, 2} {
					t.Errorf("site %d read %v across the rewrite, want [1 2]", s, got[s])
				}
			}
		})
	}
}

// syncEnv is site 1's core.Env: it runs every Exec at once and drops
// what is sent, so a test delivers each reply itself.
type syncEnv struct{}

func (syncEnv) Site() int                                   { return 1 }
func (syncEnv) Now() time.Duration                          { return 0 }
func (syncEnv) After(time.Duration, func()) (cancel func()) { return func() {} }
func (syncEnv) Send(to int, m core.NetMsg)                  {}
func (syncEnv) Exec(_ time.Duration, fn func())             { fn() }

func TestIvyWakesInPageOrder(t *testing.T) {
	// Faults blocked on several pages of a releasing segment wake in
	// page order, whether the release completes or the segment goes.
	const pages = 4
	for _, eng := range engines {
		for _, destroy := range []bool{false, true} {
			for rep := 0; rep < 50; rep++ {
				d := eng.newDSM(syncEnv{})
				d.AttachSegment(&mem.Segment{ID: 1, Key: 7, Size: pages * 512, PageSize: 512, Pages: pages, Library: 0})
				// Site 1 takes every page writable from the creating
				// site, then detaches: each page goes home.
				for p := int32(0); p < pages; p++ {
					d.Fault(1, p, true, 0, func() {})
					d.Deliver(&Msg{Kind: kPage, Mode: wire.Write, Seg: 1, Page: p, From: 0, Req: 1, Data: make([]byte, 512)})
				}
				d.ReleaseSegment(1)
				var woke []int32
				for _, p := range []int32{3, 0, 2} {
					d.Fault(1, p, false, 0, func() { woke = append(woke, p) })
				}
				if destroy {
					d.DestroySegment(1)
				} else {
					for p := int32(0); p < pages; p++ {
						d.Deliver(&Msg{Kind: kReleaseDone, Seg: 1, Page: p, From: 0})
					}
				}
				if want := []int32{0, 2, 3}; !reflect.DeepEqual(woke, want) {
					t.Fatalf("%s, destroy=%v, repetition %d: woke pages %v, want %v", eng.name, destroy, rep, woke, want)
				}
			}
		}
	}
}
