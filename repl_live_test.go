package mirage

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mirage/internal/obs"
)

// TestLiveReplicatedTakeoverUnderLoad runs the replicated-library
// leader-crash scenario over the real TCP mesh: two sites ping-pong
// writes across a two-page segment (every access needs a fresh library
// cycle, so the replicated log is appended to continuously) while the
// injector fail-stops the leader mid-load. A survivor's next request
// must elect a follower that installs from its log tail, service must
// resume for both sites, and the
// wall-clock trace must verify coherent, including the log-prefix and
// acked-append-lost invariants the replication events feed.
func TestLiveReplicatedTakeoverUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock replication run")
	}
	plan, err := ParseFaultPlan("seed=3; crash site=0 from=700ms")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(3, Options{
		TCP:   true,
		Chaos: plan,
		Reliability: &Reliability{
			AckTimeout:  5 * time.Millisecond,
			MaxBackoff:  40 * time.Millisecond,
			MaxAttempts: 6,
		},
		Failover: &Failover{Replicas: 2},
		Obs:      NewObs(),
		Check:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	id, err := c.Site(0).Shmget(0x5b, 1024, Create, 0o600) // two pages
	if err != nil {
		t.Fatal(err)
	}
	home, err := c.Site(0).Attach(id, false)
	if err != nil {
		t.Fatal(err)
	}
	defer home.Detach()
	if err := home.SetUint32(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := home.SetUint32(512, 1); err != nil {
		t.Fatal(err)
	}

	h1, err := c.Site(1).Attach(id, false)
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Detach()
	h2, err := c.Site(2).Attach(id, false)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Detach()

	// Load: site 1 owns page 0 and reads page 1; site 2 the reverse.
	// Each site's read keeps getting invalidated by the other's write,
	// so every iteration faults to the library — sustained record
	// mutations before, during, and after the crash instant. Ops that
	// land in the takeover window surface ErrUnreachable and retry.
	until := time.Now().Add(2500 * time.Millisecond)
	loadErr := make([]error, 2)
	completed := make([]int, 2)
	var wg sync.WaitGroup
	for i, cl := range []struct {
		h      *Segment
		wr, rd int // byte offsets: own write page, other's page
	}{{h1, 0, 512}, {h2, 512, 0}} {
		wg.Add(1)
		go func(i int, h *Segment, wr, rd int) {
			defer wg.Done()
			for n := uint32(2); time.Now().Before(until); n++ {
				if err := h.SetUint32(wr, n); err != nil {
					if errors.Is(err, ErrUnreachable) {
						time.Sleep(20 * time.Millisecond)
						continue
					}
					loadErr[i] = err
					return
				}
				if _, err := h.Uint32(rd); err != nil && !errors.Is(err, ErrUnreachable) {
					loadErr[i] = err
					return
				}
				completed[i]++
				time.Sleep(5 * time.Millisecond)
			}
		}(i, cl.h, cl.wr, cl.rd)
	}
	wg.Wait()
	for i, err := range loadErr {
		if err != nil {
			t.Fatalf("site %d load: %v", i+1, err)
		}
	}
	if completed[0] == 0 || completed[1] == 0 {
		t.Fatalf("load starved: completed %v", completed)
	}

	// The takeover must have been a log-tail election, not the KRecover
	// rebuild, and service must work through both survivors afterwards.
	elections := c.Site(1).Stats().Elections + c.Site(2).Stats().Elections
	if elections == 0 {
		t.Fatal("leader crash produced no log-tail election")
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if err := h2.SetUint32(0, 7777); err == nil {
			break
		} else if !errors.Is(err, ErrUnreachable) {
			t.Fatalf("post-takeover write: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("post-takeover write never succeeded")
		}
		time.Sleep(50 * time.Millisecond)
	}
	for {
		v, err := h1.Uint32(0)
		if err == nil {
			if v != 7777 {
				t.Fatalf("post-takeover read = %d, want 7777", v)
			}
			break
		} else if !errors.Is(err, ErrUnreachable) {
			t.Fatalf("post-takeover read: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("post-takeover read never succeeded")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Trace evidence: leader commits and follower applies before the
	// crash, the election event after it.
	var commits, applies, elects int
	for _, ev := range c.Obs().Buffer().Events() {
		switch {
		case ev.Type == obs.EvReplicate && ev.From == ev.Site:
			commits++
		case ev.Type == obs.EvReplicate:
			applies++
		case ev.Type == obs.EvElect:
			elects++
		}
	}
	if commits == 0 || applies == 0 || elects == 0 {
		t.Fatalf("trace: %d commits, %d applies, %d elections; want all > 0",
			commits, applies, elects)
	}

	viols, err := c.VerifyTrace()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range viols {
		t.Errorf("coherence violation in replicated takeover trace: %v", v)
	}
}
