package exp

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mirage/internal/core"
	"mirage/internal/ipc"
	"mirage/internal/mem"
	"mirage/internal/mmu"
	"mirage/internal/netsim"
)

// Failure-injection and stress tests: the protocol must stay coherent
// under slow links, process churn, and detach races.

// TestSlowLinksPreserveCoherence injects random extra per-message
// delays (seeded per case) and checks the cross-site oracle still
// holds. Ordering per circuit is preserved — the Locus virtual-circuit
// property the protocol assumes — but global interleavings shift
// drastically.
func TestSlowLinksPreserveCoherence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		delays := make([]time.Duration, 4) // per destination site
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(80)) * time.Millisecond
		}
		c := ipc.NewCluster(3, ipc.Config{
			Delta: time.Duration(rng.Intn(3)) * 20 * time.Millisecond,
		})
		c.Net.Delay = func(m netsim.Message) time.Duration {
			return delays[int(m.To)%len(delays)]
		}

		ok := true
		oracle := uint32(0)
		steps := 8 + rng.Intn(6)
		plan := make([]struct {
			site  int
			write bool
			val   uint32
		}, steps)
		for i := range plan {
			plan[i].site = rng.Intn(3)
			plan[i].write = rng.Intn(2) == 0
			plan[i].val = uint32(100 + i)
		}
		for s := 0; s < 3; s++ {
			s := s
			c.Site(s).Spawn("driver", 0, func(p *ipc.Proc) {
				var h *ipc.Shm
				if s == 0 {
					h = attachShared(p, true, 512)
				} else {
					p.Sleep(time.Millisecond)
					h = attachShared(p, false, 512)
				}
				for i, op := range plan {
					slot := time.Duration(i+1) * 2 * time.Second
					if d := slot - p.Now(); d > 0 {
						p.Sleep(d)
					}
					if op.site != s {
						continue
					}
					if op.write {
						if h.SetUint32(0, op.val) != nil {
							ok = false
							return
						}
						oracle = op.val
					} else {
						v, err := h.Uint32(0)
						if err != nil || v != oracle {
							ok = false
						}
					}
				}
				p.Sleep(time.Duration(steps+2) * 2 * time.Second)
			})
		}
		c.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestProcessChurn attaches and detaches processes continuously while
// a long-lived pair keeps mutating the page; no data may be lost and
// the segment must survive until the true last detach.
func TestProcessChurn(t *testing.T) {
	c := ipc.NewCluster(3, ipc.Config{Delta: 10 * time.Millisecond})
	var final uint32
	c.Site(0).Spawn("anchor", 0, func(p *ipc.Proc) {
		h := attachShared(p, true, 512)
		for i := uint32(1); i <= 30; i++ {
			if h.SetUint32(0, i) != nil {
				t.Error("anchor write failed")
				return
			}
			p.Sleep(20 * time.Millisecond)
		}
		p.Sleep(500 * time.Millisecond)
		final, _ = h.Uint32(0)
	})
	// Churners on other sites: attach, touch, detach, repeat.
	for s := 1; s < 3; s++ {
		s := s
		c.Site(s).Spawn("churn", 0, func(p *ipc.Proc) {
			p.Sleep(5 * time.Millisecond)
			for round := 0; round < 6; round++ {
				h := attachShared(p, false, 512)
				if _, err := h.Uint32(0); err != nil {
					t.Errorf("churn read: %v", err)
					return
				}
				if h.SetUint32(4+4*s, uint32(round)) != nil {
					t.Error("churn write failed")
					return
				}
				if err := p.Shmdt(h); err != nil {
					t.Errorf("churn detach: %v", err)
					return
				}
				p.Sleep(35 * time.Millisecond)
			}
		})
	}
	c.Run()
	if final != 30 {
		t.Fatalf("final = %d, want 30 (churn corrupted the page)", final)
	}
}

// TestDetachDuringWindow detaches a site that holds a page under an
// unexpired window while another site's request is queued; the data
// must arrive at the requester, not vanish with the releaser.
func TestDetachDuringWindow(t *testing.T) {
	c := ipc.NewCluster(3, ipc.Config{Delta: 150 * time.Millisecond})
	var got uint32
	c.Site(0).Spawn("home", 0, func(p *ipc.Proc) {
		h := attachShared(p, true, 512)
		p.Sleep(2 * time.Second)
		_ = h
	})
	c.Site(1).Spawn("holder", 0, func(p *ipc.Proc) {
		p.Sleep(5 * time.Millisecond)
		h := attachShared(p, false, 512)
		h.SetUint32(0, 4242) // fresh window starts here
		p.Shmdt(h)           // detach immediately, inside the window
	})
	c.Site(2).Spawn("requester", 0, func(p *ipc.Proc) {
		p.Sleep(60 * time.Millisecond) // request lands mid-window
		h := attachShared(p, false, 512)
		got, _ = h.Uint32(0)
	})
	c.Run()
	if got != 4242 {
		t.Fatalf("requester read %d, want 4242", got)
	}
}

// TestManyPagesManySites drives a multi-page segment from several
// sites concurrently and verifies per-page oracles at the end.
func TestManyPagesManySites(t *testing.T) {
	const sites, pages = 4, 6
	c := ipc.NewCluster(sites, ipc.Config{Delta: 5 * time.Millisecond})
	// Page p is owned logically by site p%sites; each owner increments
	// its pages' counters; everyone else reads them.
	for s := 0; s < sites; s++ {
		s := s
		c.Site(s).Spawn("mix", 0, func(p *ipc.Proc) {
			var h *ipc.Shm
			if s == 0 {
				h = attachShared(p, true, pages*512)
			} else {
				p.Sleep(time.Millisecond)
				h = attachShared(p, false, pages*512)
			}
			for i := 0; i < 10; i++ {
				for pg := 0; pg < pages; pg++ {
					off := pg * 512
					if pg%sites == s {
						if _, err := h.AddUint32(off, 1); err != nil {
							t.Errorf("site %d page %d: %v", s, pg, err)
							return
						}
					} else if i%3 == 0 {
						if _, err := h.Uint32(off); err != nil {
							t.Errorf("site %d read page %d: %v", s, pg, err)
							return
						}
					}
				}
				p.Sleep(10 * time.Millisecond)
			}
			p.Sleep(3 * time.Second) // hold attach for the check
			if s == 0 {
				for pg := 0; pg < pages; pg++ {
					v, err := h.Uint32(pg * 512)
					if err != nil || v != 10 {
						t.Errorf("page %d counter = %d (err %v), want 10", pg, v, err)
					}
				}
			}
		})
	}
	c.Run()
}

// TestLibraryQueueNeverLosesRequests floods one page with interleaved
// read and write requests from every site; the total number of
// successful accesses must equal the number issued.
func TestLibraryQueueNeverLosesRequests(t *testing.T) {
	const sites = 5
	c := ipc.NewCluster(sites, ipc.Config{Delta: 2 * time.Millisecond})
	completed := 0
	want := 0
	for s := 0; s < sites; s++ {
		s := s
		n := 6 + s
		want += n
		c.Site(s).Spawn("flood", 0, func(p *ipc.Proc) {
			var h *ipc.Shm
			if s == 0 {
				h = attachShared(p, true, 512)
			} else {
				p.Sleep(time.Millisecond)
				h = attachShared(p, false, 512)
			}
			for i := 0; i < n; i++ {
				var err error
				if (i+s)%2 == 0 {
					_, err = h.Uint32(0)
				} else {
					err = h.SetUint32(0, uint32(s*100+i))
				}
				if err != nil {
					t.Errorf("site %d op %d: %v", s, i, err)
					return
				}
				completed++
			}
			p.Sleep(5 * time.Second)
		})
	}
	var st core.LibraryPageState
	// Sample the library while the segment is still attached.
	c.K.After(4500*time.Millisecond, func() {
		st = c.Site(0).Eng.LibraryState(1, 0)
	})
	c.Run()
	if completed != want {
		t.Fatalf("completed %d of %d accesses", completed, want)
	}
	if st.Busy || st.Queued != 0 {
		t.Fatalf("library not quiescent: %+v", st)
	}
}

// TestPolicySweepUnderDelays runs the representative app briefly under
// every invalidation policy with a slow reverse link; throughput must
// stay positive and the runs must terminate (no protocol wedging).
func TestPolicySweepUnderDelays(t *testing.T) {
	for _, pol := range []core.InvalPolicy{core.PolicyRetry, core.PolicyHonorClose, core.PolicyQueue} {
		c := ipc.NewCluster(2, ipc.Config{
			Delta:  40 * time.Millisecond,
			Engine: core.Options{Policy: pol},
		})
		c.Net.Delay = func(m netsim.Message) time.Duration {
			if m.To == 0 {
				return 25 * time.Millisecond
			}
			return 0
		}
		st := runCounters(c, 0, 1, CountersConfig{Duration: 3 * time.Second})
		c.Run()
		if st.iters[0]+st.iters[1] == 0 {
			t.Fatalf("policy %v: no progress under delay", pol)
		}
	}
}

// TestSingleWriterInvariantDuringChurn samples the cross-site
// protection invariant repeatedly during a busy run.
func TestSingleWriterInvariantDuringChurn(t *testing.T) {
	c := ipc.NewCluster(3, ipc.Config{Delta: 3 * time.Millisecond})
	runCounters(c, 0, 1, CountersConfig{Duration: 2 * time.Second})
	violations := 0
	var sample func()
	sample = func() {
		writers, readers := 0, 0
		for s := 0; s < 3; s++ {
			seg := c.Site(s).Eng.Seg(1)
			if seg == nil {
				continue
			}
			switch seg.Prot(0) {
			case mmu.ReadWrite:
				writers++
			case mmu.ReadOnly:
				readers++
			}
		}
		if writers > 1 || (writers == 1 && readers > 0) {
			violations++
		}
		if c.K.Now().Duration() < 2*time.Second {
			c.K.After(777*time.Microsecond, sample)
		}
	}
	c.K.After(time.Millisecond, sample)
	c.Run()
	if violations != 0 {
		t.Fatalf("%d invariant violations sampled", violations)
	}
}

// TestOversizeAndZeroSegments covers registry edge cases through the
// full stack.
func TestOversizeAndZeroSegments(t *testing.T) {
	c := ipc.NewCluster(1, ipc.Config{})
	okErrs := true
	c.Site(0).Spawn("edge", 0, func(p *ipc.Proc) {
		if _, err := p.Shmget(90, 0, mem.Create, rwMode); err == nil {
			okErrs = false
		}
		if _, err := p.Shmget(91, 1<<30, mem.Create, rwMode); err == nil {
			okErrs = false
		}
		// One byte rounds to one page.
		id, err := p.Shmget(92, 1, mem.Create, rwMode)
		if err != nil {
			okErrs = false
			return
		}
		h, err := p.Shmat(id, false)
		if err != nil {
			okErrs = false
			return
		}
		if err := h.WriteAt([]byte{7}, 0); err != nil {
			okErrs = false
		}
		if err := h.WriteAt([]byte{7}, 1); err == nil { // beyond Size
			okErrs = false
		}
	})
	c.Run()
	if !okErrs {
		t.Fatal("edge-case handling wrong")
	}
}
