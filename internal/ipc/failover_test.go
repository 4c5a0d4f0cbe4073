package ipc

import (
	"errors"
	"testing"
	"time"

	"mirage/internal/chaos"
	"mirage/internal/check"
	"mirage/internal/core"
	"mirage/internal/mem"
	"mirage/internal/obs"
)

// crashAt builds a plan that fail-stops one site at the given instant
// (forever when until is 0).
func crashAt(site int, from, until time.Duration) *chaos.Plan {
	return &chaos.Plan{
		Seed:       1,
		Partitions: []chaos.Partition{{Sites: []int{site}, From: from, Until: until}},
	}
}

// attachRetry attaches the well-known test segment, waiting out the
// window before the creator registers it.
func attachRetry(t *testing.T, p *Proc) *Shm {
	var id mem.SegID
	for {
		var err error
		id, err = p.Shmget(7, 512, 0, 0)
		if err == nil {
			break
		}
		p.Sleep(time.Millisecond)
	}
	h, err := p.Shmat(id, false)
	if err != nil {
		t.Error(err)
		return nil
	}
	return h
}

// TestLibraryCrashPromptErrorWithoutFailover pins the pre-failover
// contract: when the library site fail-stops and no failover is
// configured, a remote access must surface ErrUnreachable once the
// retry budget is spent — promptly, never hanging the accessor.
func TestLibraryCrashPromptErrorWithoutFailover(t *testing.T) {
	c := NewCluster(3, Config{
		Chaos:  crashAt(0, time.Second, 0),
		Engine: core.Options{Reliability: testRel()},
	})
	var crashedErr error
	errAt := time.Duration(-1)
	c.Site(0).Spawn("lib", 0, func(p *Proc) {
		id, _ := p.Shmget(7, 512, mem.Create, rw)
		h, _ := p.Shmat(id, false)
		h.SetUint32(0, 42)
		p.Sleep(30 * time.Second)
	})
	c.Site(1).Spawn("remote", 0, func(p *Proc) {
		h := attachRetry(t, p)
		if h == nil {
			return
		}
		p.Sleep(2 * time.Second) // the library is now dead
		crashedErr = h.SetUint32(0, 7)
		errAt = p.Now()
	})
	c.RunFor(20 * time.Second)
	if !errors.Is(crashedErr, core.ErrUnreachable) {
		t.Fatalf("post-crash write error = %v, want ErrUnreachable", crashedErr)
	}
	// testRel gives up after ~310ms of backoff; anything inside a few
	// seconds counts as prompt (the point is: bounded, not RunFor-bounded).
	if errAt < 0 || errAt > 7*time.Second {
		t.Fatalf("error surfaced at %v, want promptly after the 2s access", errAt)
	}
}

// TestLibraryCrashFailoverTakeover is the tentpole scenario: the
// library site fail-stops, a surviving holder's next request elects the
// deterministic successor, the successor rebuilds the page records from
// surviving copies under a bumped epoch, and post-crash accesses
// succeed with no ErrUnreachable. The multi-epoch trace must verify
// coherent.
func TestLibraryCrashFailoverTakeover(t *testing.T) {
	o := obs.New()
	c := NewCluster(3, Config{
		Chaos: crashAt(0, time.Second, 0),
		Engine: core.Options{
			Reliability: testRel(),
			Failover:    &core.Failover{},
			Obs:         o,
		},
	})
	var writeErr error
	var remoteRead uint32
	writeDone := time.Duration(-1)
	c.Site(0).Spawn("lib", 0, func(p *Proc) {
		id, _ := p.Shmget(7, 512, mem.Create, rw)
		h, _ := p.Shmat(id, false)
		h.SetUint32(0, 42)
		p.Sleep(30 * time.Second)
	})
	c.Site(1).Spawn("successor", 0, func(p *Proc) {
		h := attachRetry(t, p)
		if h == nil {
			return
		}
		if v := readRetry(t, p, h, 0); v != 42 {
			t.Errorf("pre-crash read = %d, want 42", v)
		}
		p.Sleep(2 * time.Second) // library dead; this site holds the copy
		// The write must ride through failover without surfacing an
		// error: the trigger leg elects this site, recovery rebuilds the
		// record from the surviving copy, and the re-request is granted.
		writeErr = h.SetUint32(0, 100)
		writeDone = p.Now()
		p.Sleep(15 * time.Second)
	})
	c.Site(2).Spawn("reader", 0, func(p *Proc) {
		h := attachRetry(t, p)
		if h == nil {
			return
		}
		p.Sleep(5 * time.Second) // well past the takeover
		remoteRead = readRetry(t, p, h, 0)
	})
	c.RunFor(20 * time.Second)

	if writeErr != nil {
		t.Fatalf("post-crash write = %v, want success through failover", writeErr)
	}
	if writeDone < 0 || writeDone > 7*time.Second {
		t.Fatalf("post-crash write completed at %v, want prompt takeover", writeDone)
	}
	if remoteRead != 100 {
		t.Fatalf("post-failover remote read = %d, want 100", remoteRead)
	}
	st := c.Site(1).Eng.Stats()
	if st.Failovers == 0 || st.Recoveries == 0 {
		t.Fatalf("successor stats: %+v, want a failover trigger and a completed recovery", st)
	}

	events := o.Buffer().Events()
	var sawFailover, sawRecover, sawEpoch bool
	for _, ev := range events {
		switch ev.Type {
		case obs.EvFailover:
			sawFailover = true
		case obs.EvRecover:
			sawRecover = true
		}
		if ev.Epoch >= 1 {
			sawEpoch = true
		}
	}
	if !sawFailover || !sawRecover || !sawEpoch {
		t.Fatalf("trace missing failover evidence: failover=%v recover=%v epoch1=%v",
			sawFailover, sawRecover, sawEpoch)
	}
	viols := check.Verify(check.Config{Sites: 3, Reliable: true}, events)
	for _, v := range viols {
		t.Errorf("coherence violation across epochs: %v", v)
	}
}

// TestLibraryCrashMidCycleFailover crashes the library while grant
// cycles are continuously in flight between two other sites. In-flight
// cycles from the dead epoch abort via the degraded-grant path (a
// retryable ErrUnreachable at worst), the successor takes over, and no
// increment is ever lost — the final counter accounts for every update.
func TestLibraryCrashMidCycleFailover(t *testing.T) {
	o := obs.New()
	rel := testRel()
	rel.RequestTimeout = 2 * time.Second // backstop for mid-cycle strands
	c := NewCluster(3, Config{
		Chaos: crashAt(0, 1500*time.Millisecond, 0),
		Engine: core.Options{
			Reliability: rel,
			Failover:    &core.Failover{},
			Obs:         o,
		},
	})
	const perSite = 15
	var final uint32
	c.Site(0).Spawn("lib", 0, func(p *Proc) {
		id, _ := p.Shmget(7, 512, mem.Create, rw)
		h, _ := p.Shmat(id, false)
		h.SetUint32(0, 0)
		p.Sleep(2 * time.Minute) // hold the attach; dead from 1.5s on
	})
	for i := 1; i <= 2; i++ {
		site := c.Site(i)
		last := i == 2
		site.Spawn("inc", 0, func(p *Proc) {
			h := attachRetry(t, p)
			if h == nil {
				return
			}
			for k := 0; k < perSite; k++ {
				addRetry(t, p, h, 0)
				p.Sleep(80 * time.Millisecond) // straddle the crash instant
			}
			addRetry(t, p, h, 8) // done marker
			if last {
				for readRetry(t, p, h, 8) != 2 {
					p.Sleep(50 * time.Millisecond)
				}
				final = readRetry(t, p, h, 0)
			}
		})
	}
	c.RunFor(2 * time.Minute)
	if final != 2*perSite {
		t.Fatalf("final counter = %d, want %d (updates lost across failover)", final, 2*perSite)
	}
	st1, st2 := c.Site(1).Eng.Stats(), c.Site(2).Eng.Stats()
	if st1.Recoveries+st2.Recoveries == 0 {
		t.Fatalf("no recovery completed: site1=%+v site2=%+v", st1, st2)
	}
	viols := check.Verify(check.Config{Sites: 3, Reliable: true}, o.Buffer().Events())
	for _, v := range viols {
		t.Errorf("coherence violation across epochs: %v", v)
	}
}

// TestFailoverOrphanPageFailsFast pins the orphan policy: when the dead
// library held a page's only copy, the successor keeps the record
// pointing at the dead site rather than fabricating zeroes. Accesses
// fail fast with ErrUnreachable while the site is down — coherence over
// availability — instead of hanging or serving invented data.
func TestFailoverOrphanPageFailsFast(t *testing.T) {
	c := NewCluster(3, Config{
		Chaos: crashAt(0, time.Second, 0),
		Engine: core.Options{
			Reliability: testRel(),
			Failover:    &core.Failover{},
		},
	})
	var orphanErr error
	c.Site(0).Spawn("lib", 0, func(p *Proc) {
		id, _ := p.Shmget(7, 512, mem.Create, rw)
		h, _ := p.Shmat(id, false)
		h.SetUint32(0, 42) // the only copy lives (and dies) at the library
		p.Sleep(30 * time.Second)
	})
	c.Site(1).Spawn("reader", 0, func(p *Proc) {
		h := attachRetry(t, p)
		if h == nil {
			return
		}
		p.Sleep(2 * time.Second)
		// Triggers failover; the rebuilt record has no surviving copy, so
		// the re-request is denied rather than hung or zero-filled.
		_, orphanErr = h.Uint32(0)
	})
	c.RunFor(30 * time.Second)
	if !errors.Is(orphanErr, core.ErrUnreachable) {
		t.Fatalf("orphan-page read error = %v, want ErrUnreachable", orphanErr)
	}
	st := c.Site(1).Eng.Stats()
	if st.Recoveries == 0 {
		t.Fatalf("recovery never completed at the successor: %+v", st)
	}
	if st.Lost != 0 {
		t.Fatalf("orphan page was zero-filled (Lost=%d); the record must stay with the dead site", st.Lost)
	}
}
