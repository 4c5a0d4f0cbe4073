package ipc

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mirage/internal/core"
	"mirage/internal/mem"
	"mirage/internal/obs"
	"mirage/internal/vaxmodel"
)

const rw = mem.OwnerRead | mem.OwnerWrite | mem.OtherRead | mem.OtherWrite

func TestSingleSiteShareVisibleImmediately(t *testing.T) {
	c := NewCluster(1, Config{})
	var got uint32
	c.Site(0).Spawn("writer", 0, func(p *Proc) {
		id, err := p.Shmget(7, 4096, mem.Create, rw)
		if err != nil {
			t.Error(err)
			return
		}
		h, err := p.Shmat(id, false)
		if err != nil {
			t.Error(err)
			return
		}
		if err := h.SetUint32(100, 0xDEADBEEF); err != nil {
			t.Error(err)
		}
		v, err := h.Uint32(100)
		if err != nil {
			t.Error(err)
		}
		got = v
	})
	c.Run()
	if got != 0xDEADBEEF {
		t.Fatalf("got %#x", got)
	}
}

func TestCrossSiteCoherence(t *testing.T) {
	c := NewCluster(2, Config{})
	var read uint32
	done := false
	c.Site(0).Spawn("creator", 0, func(p *Proc) {
		id, _ := p.Shmget(7, 512, mem.Create, rw)
		h, _ := p.Shmat(id, false)
		h.SetUint32(0, 41)
		h.SetUint32(0, 42)
		// Wait for the partner to signal back at offset 8.
		for {
			v, _ := h.Uint32(8)
			if v == 1 {
				break
			}
			p.Yield()
		}
		v, _ := h.Uint32(4)
		read = v
		done = true
	})
	c.Site(1).Spawn("partner", 0, func(p *Proc) {
		var id mem.SegID
		for {
			var err error
			id, err = p.Shmget(7, 512, 0, 0)
			if err == nil {
				break
			}
			p.Sleep(time.Millisecond)
		}
		h, _ := p.Shmat(id, false)
		for {
			v, _ := h.Uint32(0)
			if v == 42 {
				break
			}
			p.Yield()
		}
		h.SetUint32(4, 1042)
		h.SetUint32(8, 1)
	})
	c.RunFor(30 * time.Second)
	if !done {
		t.Fatal("processes did not complete")
	}
	if read != 1042 {
		t.Fatalf("creator read %d, want partner's 1042", read)
	}
}

func TestRemoteReadElapsedMatchesTable3(t *testing.T) {
	// A single remote read fault of a page checked in at the library
	// must take ~27.5 ms end to end (Table 3), plus the dispatch
	// overhead of waking the faulting process.
	c := NewCluster(2, Config{})
	var elapsed time.Duration
	c.Site(0).Spawn("lib", 0, func(p *Proc) {
		id, _ := p.Shmget(7, 512, mem.Create, rw)
		h, _ := p.Shmat(id, false)
		h.SetUint32(0, 9)
		// Keep attached until the reader finishes.
		p.Sleep(2 * time.Second)
		_ = h
	})
	c.Site(1).Spawn("reader", 0, func(p *Proc) {
		p.Sleep(100 * time.Millisecond) // let creation settle
		id, _ := p.Shmget(7, 512, 0, 0)
		h, _ := p.Shmat(id, false)
		t0 := p.Now()
		v, _ := h.Uint32(0)
		elapsed = p.Now() - t0
		if v != 9 {
			t.Errorf("read %d", v)
		}
	})
	c.Run()
	if elapsed < 27*time.Millisecond || elapsed > 32*time.Millisecond {
		t.Fatalf("remote fetch elapsed = %v, want ≈27.5 ms (Table 3) + dispatch", elapsed)
	}
}

func TestLocalFaultColocatedLibraryIsCheap(t *testing.T) {
	// When requester and library are the same site, a fault is a pair
	// of loopback messages: ~1.5 ms service plus dispatch.
	c := NewCluster(2, Config{})
	var elapsed time.Duration
	c.Site(0).Spawn("lib", 0, func(p *Proc) {
		id, _ := p.Shmget(7, 512, mem.Create, rw)
		h, _ := p.Shmat(id, false)
		h.SetUint32(0, 1)
		// Move the page away: remote site takes it as writer.
		c2 := make(chan struct{}) // unused; simulation is single-threaded
		_ = c2
		p.Sleep(500 * time.Millisecond)
		// Now fault it back.
		t0 := p.Now()
		h.Uint32(0)
		elapsed = p.Now() - t0
	})
	c.Site(1).Spawn("taker", 0, func(p *Proc) {
		p.Sleep(100 * time.Millisecond)
		id, _ := p.Shmget(7, 512, 0, rw)
		h, _ := p.Shmat(id, false)
		h.SetUint32(0, 2)
		p.Sleep(2 * time.Second) // hold attach
	})
	c.Run()
	// Local-request issuance (1.5ms) + inval to remote + page back:
	// must still be dominated by the remote leg, but well under two
	// full Table-3 round trips.
	if elapsed == 0 || elapsed > 60*time.Millisecond {
		t.Fatalf("colocated fault elapsed = %v", elapsed)
	}
}

func TestLastDetachDestroysEverywhere(t *testing.T) {
	c := NewCluster(2, Config{})
	c.Site(0).Spawn("a", 0, func(p *Proc) {
		id, _ := p.Shmget(7, 512, mem.Create, rw)
		h, _ := p.Shmat(id, false)
		h.SetUint32(0, 5)
		p.Sleep(200 * time.Millisecond)
		p.Shmdt(h)
	})
	c.Site(1).Spawn("b", 0, func(p *Proc) {
		p.Sleep(50 * time.Millisecond)
		id, _ := p.Shmget(7, 512, 0, rw)
		h, _ := p.Shmat(id, false)
		h.Uint32(0)
		p.Sleep(500 * time.Millisecond)
		p.Shmdt(h)
	})
	c.Run()
	if got := len(c.Registry.Segments()); got != 0 {
		t.Fatalf("segments left = %d", got)
	}
	if c.Site(0).Eng.Attached(1) || c.Site(1).Eng.Attached(1) {
		t.Fatal("engines still hold destroyed segment")
	}
}

func TestReleaseOnLastLocalDetach(t *testing.T) {
	c := NewCluster(2, Config{})
	c.Site(1).Spawn("remote", 0, func(p *Proc) {
		p.Sleep(50 * time.Millisecond)
		id, _ := p.Shmget(7, 512, 0, rw)
		h, _ := p.Shmat(id, false)
		h.SetUint32(0, 77) // becomes writer
		p.Shmdt(h)         // last local detach: release pages home
	})
	var back uint32
	c.Site(0).Spawn("lib", 0, func(p *Proc) {
		id, _ := p.Shmget(7, 512, mem.Create, rw)
		h, _ := p.Shmat(id, false)
		p.Sleep(800 * time.Millisecond)
		back, _ = h.Uint32(0)
	})
	c.Run()
	if back != 77 {
		t.Fatalf("library read %d after remote release, want 77", back)
	}
}

func TestRemapChargedForAttachedSegments(t *testing.T) {
	c := NewCluster(1, Config{})
	var pages int
	c.Site(0).Spawn("m", 0, func(p *Proc) {
		id, _ := p.Shmget(7, 8*512, mem.Create, rw)
		h, _ := p.Shmat(id, false)
		pages = p.task.RemapPages()
		_ = h
	})
	c.Run()
	if pages != 8 {
		t.Fatalf("remap pages = %d, want full segment size 8 (§6.2 remaps all)", pages)
	}
}

func TestTestAndSetSpinlock(t *testing.T) {
	// A TAS lock protecting a counter across two sites: mutual
	// exclusion must hold despite page movement.
	c := NewCluster(2, Config{})
	const iters = 5
	worker := func(p *Proc) {
		var id mem.SegID
		for {
			var err error
			id, err = p.Shmget(7, 512, 0, 0)
			if err == nil {
				break
			}
			p.Sleep(time.Millisecond)
		}
		h, _ := p.Shmat(id, false)
		for i := 0; i < iters; i++ {
			for {
				old, _ := h.TestAndSet(0)
				if old == 0 {
					break
				}
				p.Yield()
			}
			v, _ := h.Uint32(4)
			h.SetUint32(4, v+1)
			h.Clear(0)
		}
		p.Sleep(3 * time.Second) // hold attach until both finish
	}
	var final uint32
	c.Site(0).Spawn("init", 0, func(p *Proc) {
		_, err := p.Shmget(7, 512, mem.Create, rw)
		if err != nil {
			t.Error(err)
		}
		h, _ := p.Shmat(mem.SegID(1), false)
		p.Sleep(5 * time.Second)
		final, _ = h.Uint32(4)
	})
	c.Site(0).Spawn("w0", 0, worker)
	c.Site(1).Spawn("w1", 0, worker)
	c.Run()
	if final != 2*iters {
		t.Fatalf("counter = %d, want %d", final, 2*iters)
	}
}

func TestQuickCrossSiteOracle(t *testing.T) {
	// Random one-writer-at-a-time schedule across sites with a token
	// in shared memory; readers must always see the latest value.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sites := 2 + rng.Intn(2)
		delta := time.Duration(rng.Intn(3)) * 10 * time.Millisecond
		c := NewCluster(sites, Config{Delta: delta})
		ok := true

		// One driver process per site; a schedule array says who acts
		// at each step. Coordination via Sleep staggering: each op
		// happens at a distinct virtual second.
		steps := 6 + rng.Intn(6)
		type st struct {
			site  int
			write bool
			val   uint32
		}
		plan := make([]st, steps)
		var lastVal uint32
		for i := range plan {
			plan[i] = st{site: rng.Intn(sites), write: rng.Intn(2) == 0, val: uint32(i + 1)}
		}
		for s := 0; s < sites; s++ {
			s := s
			c.Site(s).Spawn("driver", 0, func(p *Proc) {
				var h *Shm
				if s == 0 {
					id, _ := p.Shmget(9, 512, mem.Create, rw)
					h, _ = p.Shmat(id, false)
				} else {
					p.Sleep(10 * time.Millisecond)
					id, _ := p.Shmget(9, 512, 0, 0)
					h, _ = p.Shmat(id, false)
				}
				for i, op := range plan {
					// Wait for this op's time slot.
					slot := time.Duration(i+1) * time.Second
					if d := slot - p.Now(); d > 0 {
						p.Sleep(d)
					}
					if op.site != s {
						continue
					}
					if op.write {
						h.SetUint32(0, op.val)
					} else {
						got, _ := h.Uint32(0)
						want := uint32(0)
						for j := i - 1; j >= 0; j-- {
							if plan[j].write {
								want = plan[j].val
								break
							}
						}
						if got != want {
							ok = false
						}
					}
				}
				p.Sleep(time.Duration(steps+2) * time.Second)
			})
		}
		_ = lastVal
		c.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterDefaultsFromVaxModel(t *testing.T) {
	c := NewCluster(1, Config{})
	if c.Registry.PageSize() != vaxmodel.PageSize {
		t.Fatalf("page size = %d", c.Registry.PageSize())
	}
	if c.Sites() != 1 {
		t.Fatalf("sites = %d", c.Sites())
	}
	var tooBig error
	c.Site(0).Spawn("big", 0, func(p *Proc) {
		_, tooBig = p.Shmget(7, vaxmodel.MaxSegmentBytes+1, mem.Create, rw)
	})
	c.Run()
	if !errors.Is(tooBig, mem.ErrInvalid) {
		t.Fatalf("oversize segment: %v", tooBig)
	}
}

func TestFaultLatencyHistogram(t *testing.T) {
	t.Run("standalone", func(t *testing.T) { testFaultLatency(t, nil) })
	// With a registry the cluster's histogram IS fault_latency_ns: one
	// fault is one sample in one place.
	t.Run("registry", func(t *testing.T) { testFaultLatency(t, obs.New()) })
}

func testFaultLatency(t *testing.T, o *obs.Obs) {
	c := NewCluster(2, Config{Engine: core.Options{Obs: o}})
	c.Site(0).Spawn("lib", 0, func(p *Proc) {
		id, _ := p.Shmget(7, 512, mem.Create, rw)
		h, _ := p.Shmat(id, false)
		h.SetUint32(0, 1)
		p.Sleep(time.Second)
	})
	c.Site(1).Spawn("reader", 0, func(p *Proc) {
		p.Sleep(100 * time.Millisecond)
		id, _ := p.Shmget(7, 512, 0, 0)
		h, _ := p.Shmat(id, false)
		h.Uint32(0) // one remote fault ≈ 28 ms
	})
	c.Run()
	hist := c.FaultLatency
	if o != nil && hist != o.Metrics.Hist(obs.HFaultLatency) {
		t.Fatal("FaultLatency is not the registry's fault_latency_ns")
	}
	if hist.Count() != 1 {
		t.Fatalf("faults recorded = %d", hist.Count())
	}
	// Table 3's ~28.9 ms lands in the ≤2^25 ns (33.55 ms) bucket.
	if q := time.Duration(hist.Quantile(1.0)); q != 1<<25 {
		t.Fatalf("fault latency = %v, want ≈29 ms", q)
	}
}
