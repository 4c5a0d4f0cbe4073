package ipc

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"mirage/internal/chaos"
	"mirage/internal/core"
	"mirage/internal/mem"
)

// testRel is a reliability configuration tightened for simulation:
// short ack timeouts keep give-up horizons (and therefore virtual
// test time) small.
func testRel() *core.Reliability {
	return &core.Reliability{
		AckTimeout:     10 * time.Millisecond,
		MaxBackoff:     80 * time.Millisecond,
		MaxAttempts:    6,
		RequestTimeout: 10 * time.Second,
	}
}

// addRetry increments a counter, retrying over degraded-grant errors
// (the legitimate application response: the error is a failed fault,
// no partial write happened).
func addRetry(t *testing.T, p *Proc, h *Shm, off int) {
	for {
		_, err := h.AddUint32(off, 1)
		if err == nil {
			return
		}
		if !errors.Is(err, core.ErrUnreachable) {
			t.Errorf("increment: %v", err)
			return
		}
		p.Sleep(50 * time.Millisecond)
	}
}

func readRetry(t *testing.T, p *Proc, h *Shm, off int) uint32 {
	for {
		v, err := h.Uint32(off)
		if err == nil {
			return v
		}
		if !errors.Is(err, core.ErrUnreachable) {
			t.Errorf("read: %v", err)
			return 0
		}
		p.Sleep(50 * time.Millisecond)
	}
}

// runChaosCounters runs the contended-counter workload (every site
// hammers one shared word) under the given fault plan and returns the
// final counter value and the cluster for stats inspection.
func runChaosCounters(t *testing.T, plan *chaos.Plan, sites, perSite int) (uint32, *Cluster) {
	c := NewCluster(sites, Config{
		Chaos:  plan,
		Engine: core.Options{Reliability: testRel()},
	})
	var final uint32
	for i := 0; i < sites; i++ {
		site := c.Site(i)
		last := i == 0
		site.Spawn("inc", 0, func(p *Proc) {
			var id mem.SegID
			for {
				var err error
				id, err = p.Shmget(7, 512, mem.Create, rw)
				if err == nil {
					break
				}
				p.Sleep(time.Millisecond)
			}
			h, err := p.Shmat(id, false)
			if err != nil {
				t.Error(err)
				return
			}
			for k := 0; k < perSite; k++ {
				addRetry(t, p, h, 0)
			}
			addRetry(t, p, h, 8) // done marker
			if last {
				for readRetry(t, p, h, 8) != uint32(sites) {
					p.Sleep(10 * time.Millisecond)
				}
				final = readRetry(t, p, h, 0)
			}
		})
	}
	c.RunFor(10 * time.Minute)
	return final, c
}

// TestChaosPropertyNoLostUpdates is the coherence property under
// duplication, delay and reordering (drop disabled so no access can be
// degraded): for any seed, every increment from every site survives —
// reads always see the latest write.
func TestChaosPropertyNoLostUpdates(t *testing.T) {
	prop := func(seed int64) bool {
		plan, err := chaos.Parse("dup p=0.15; delay p=0.25 max=6ms; reorder p=0.15 max=10ms")
		if err != nil {
			t.Fatal(err)
		}
		plan.Seed = seed
		final, _ := runChaosCounters(t, plan, 3, 12)
		if final != 36 {
			t.Logf("seed %d: final = %d, want 36", seed, final)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestChaosDropWorkloadCompletes is the acceptance criterion from the
// failure-model design: a seeded plan combining ≤10% drop with
// duplication and delay still lets the workload run to completion with
// coherence intact (retransmission absorbs the loss; any residual
// give-up surfaces as a retryable error, never as a lost update).
func TestChaosDropWorkloadCompletes(t *testing.T) {
	plan, err := chaos.Parse("seed=41; drop p=0.1; dup p=0.1; delay p=0.2 max=5ms")
	if err != nil {
		t.Fatal(err)
	}
	final, c := runChaosCounters(t, plan, 3, 10)
	if final != 30 {
		t.Fatalf("final counter = %d, want 30 (lost updates under drop)", final)
	}
	if c.Net.Stats().Dropped == 0 {
		t.Fatal("plan dropped nothing; test is vacuous")
	}
	st := c.Site(1).Eng.Stats()
	if st.Retransmits == 0 {
		t.Fatalf("no retransmissions despite drops: %+v", st)
	}
}

// TestChaosSameSeedReplays runs one chaotic workload twice and demands
// bit-identical outcomes: same final virtual time, same network
// counters, same injector decisions — the sim-mode replay contract
// end to end through the full cluster stack.
func TestChaosSameSeedReplays(t *testing.T) {
	run := func() (time.Duration, interface{}, chaos.Stats) {
		plan, err := chaos.Parse("seed=99; drop p=0.05; dup p=0.1; delay p=0.3 max=4ms")
		if err != nil {
			t.Fatal(err)
		}
		final, c := runChaosCounters(t, plan, 3, 8)
		if final != 24 {
			t.Fatalf("final = %d, want 24", final)
		}
		return c.K.Now().Duration(), c.Net.Stats(), c.Chaos.Stats()
	}
	t1, n1, s1 := run()
	t2, n2, s2 := run()
	if t1 != t2 {
		t.Fatalf("final virtual time differs: %v vs %v", t1, t2)
	}
	if n1 != n2 {
		t.Fatalf("network stats differ:\n%+v\n%+v", n1, n2)
	}
	if s1.String() != s2.String() {
		t.Fatalf("chaos stats differ:\n%v\n%v", s1, s2)
	}
}

// TestPartitionDegradedGrantThenHeal partitions a requester away from
// the library mid-run: its accesses must fail with ErrUnreachable
// (coherence over availability — never a stale read), and once the
// partition heals the same access must succeed and observe the latest
// write made on the majority side.
func TestPartitionDegradedGrantThenHeal(t *testing.T) {
	plan := &chaos.Plan{
		Seed:       1,
		Partitions: []chaos.Partition{{Sites: []int{1}, From: 500 * time.Millisecond, Until: 4 * time.Second}},
	}
	c := NewCluster(2, Config{
		Chaos: plan,
		Engine: core.Options{Reliability: &core.Reliability{
			AckTimeout:     10 * time.Millisecond,
			MaxBackoff:     50 * time.Millisecond,
			MaxAttempts:    4,
			RequestTimeout: 2 * time.Second,
		}},
	})
	var sawUnreachable bool
	var healedRead uint32
	c.Site(0).Spawn("home", 0, func(p *Proc) {
		id, _ := p.Shmget(7, 512, mem.Create, rw)
		h, _ := p.Shmat(id, false)
		h.SetUint32(0, 1)
		p.Sleep(2 * time.Second) // partition is up; keep writing locally
		h.SetUint32(0, 777)
		p.Sleep(8 * time.Second) // hold the attach until the reader is done
	})
	c.Site(1).Spawn("cutoff", 0, func(p *Proc) {
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
		p.Sleep(time.Second) // now inside the partition window
		_, err := h.Uint32(0)
		if errors.Is(err, core.ErrUnreachable) {
			sawUnreachable = true
		} else if err != nil {
			t.Errorf("partitioned read: %v", err)
		} else {
			t.Error("partitioned read of a remote page succeeded")
		}
		// Wait out the partition, then retry: must see the latest write.
		for p.Now() < 5*time.Second {
			p.Sleep(100 * time.Millisecond)
		}
		healedRead = readRetry(t, p, h, 0)
	})
	c.RunFor(time.Minute)
	if !sawUnreachable {
		t.Fatal("no ErrUnreachable during the partition")
	}
	if healedRead != 777 {
		t.Fatalf("post-heal read = %d, want 777", healedRead)
	}
}

// TestDeniedUpgradeHealsClockRecord is the regression test for a
// post-heal livelock: the library site holds a read copy (it is the
// clock), a remote reader is partitioned away, and the library's own
// write is denied — the degraded-grant path drops the library site's
// read copy. The library record must follow (reader shed, clock role
// handed to the surviving reader); otherwise every post-heal write
// cycle is aimed at the vanished clock copy and is denied forever.
func TestDeniedUpgradeHealsClockRecord(t *testing.T) {
	plan := &chaos.Plan{
		Seed:       1,
		Partitions: []chaos.Partition{{Sites: []int{1}, From: 500 * time.Millisecond, Until: 2 * time.Second}},
	}
	c := NewCluster(2, Config{
		Chaos: plan,
		Engine: core.Options{Reliability: &core.Reliability{
			AckTimeout:     10 * time.Millisecond,
			MaxBackoff:     50 * time.Millisecond,
			MaxAttempts:    4,
			RequestTimeout: 2 * time.Second,
		}},
	})
	var deniedErr error
	var healedWrites, healedRead uint32
	c.Site(0).Spawn("lib", 0, func(p *Proc) {
		id, _ := p.Shmget(7, 512, mem.Create, rw)
		h, _ := p.Shmat(id, false)
		h.SetUint32(0, 100)  // library is the writer...
		p.Sleep(time.Second) // ...site 1 reads; now inside the partition
		deniedErr = h.SetUint32(0, 150)
		// Wait out the partition, then the same write must converge
		// instead of looping on denials.
		for p.Now() < 3*time.Second {
			p.Sleep(100 * time.Millisecond)
		}
		for i := 0; i < 50; i++ {
			if err := h.SetUint32(0, 200); err == nil {
				healedWrites++
				break
			} else if !errors.Is(err, core.ErrUnreachable) {
				t.Errorf("post-heal write: %v", err)
				return
			}
			p.Sleep(100 * time.Millisecond)
		}
		p.Sleep(5 * time.Second) // hold the attach for the reader
	})
	c.Site(1).Spawn("reader", 0, func(p *Proc) {
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
		readRetry(t, p, h, 0) // become a reader: library downgrades to clock
		for p.Now() < 8*time.Second {
			p.Sleep(100 * time.Millisecond)
		}
		healedRead = readRetry(t, p, h, 0)
	})
	c.RunFor(time.Minute)
	if !errors.Is(deniedErr, core.ErrUnreachable) {
		t.Fatalf("partition-era upgrade error = %v, want ErrUnreachable", deniedErr)
	}
	if healedWrites != 1 {
		t.Fatal("post-heal write never succeeded: library clock record still aimed at the dropped copy")
	}
	if healedRead != 200 {
		t.Fatalf("post-heal remote read = %d, want 200 (stale copy survived the write grant)", healedRead)
	}
}

// TestPartitionedHolderCycleAborts partitions a page's holder (the
// clock site) away: a third site's write request must be denied with
// an error rather than hanging the library queue forever, and after
// the heal the write must succeed without losing the page.
func TestPartitionedHolderCycleAborts(t *testing.T) {
	plan := &chaos.Plan{
		Seed:       1,
		Partitions: []chaos.Partition{{Sites: []int{1}, From: time.Second, Until: 5 * time.Second}},
	}
	c := NewCluster(3, Config{
		Chaos: plan,
		Engine: core.Options{Reliability: &core.Reliability{
			AckTimeout:     10 * time.Millisecond,
			MaxBackoff:     50 * time.Millisecond,
			MaxAttempts:    4,
			RequestTimeout: 2 * time.Second,
		}},
	})
	var deniedErr error
	var finalRead uint32
	c.Site(0).Spawn("lib", 0, func(p *Proc) {
		id, _ := p.Shmget(7, 512, mem.Create, rw)
		h, _ := p.Shmat(id, false)
		h.SetUint32(0, 5)
		p.Sleep(12 * time.Second)
		finalRead = readRetry(t, p, h, 0)
	})
	c.Site(1).Spawn("holder", 0, func(p *Proc) {
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
		h.SetUint32(0, 9) // site 1 becomes the writer (and clock) before the cut
		p.Sleep(10 * time.Second)
	})
	c.Site(2).Spawn("wants-write", 0, func(p *Proc) {
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
		p.Sleep(2 * time.Second) // the holder is now unreachable
		deniedErr = h.SetUint32(0, 33)
		if deniedErr == nil {
			t.Error("write granted while the only copy was unreachable")
			return
		}
		// After the heal the write must go through.
		for p.Now() < 6*time.Second {
			p.Sleep(100 * time.Millisecond)
		}
		for {
			if err := h.SetUint32(0, 33); err == nil {
				break
			} else if !errors.Is(err, core.ErrUnreachable) {
				t.Errorf("post-heal write: %v", err)
				return
			}
			p.Sleep(100 * time.Millisecond)
		}
	})
	c.RunFor(time.Minute)
	if !errors.Is(deniedErr, core.ErrUnreachable) {
		t.Fatalf("partitioned-holder write error = %v, want ErrUnreachable", deniedErr)
	}
	if finalRead != 33 {
		t.Fatalf("final value = %d, want 33 (post-heal write lost)", finalRead)
	}
}
