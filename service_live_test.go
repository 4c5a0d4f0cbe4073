package mirage

import (
	"errors"
	"testing"
	"time"

	"mirage/internal/load"
	"mirage/internal/obs"
)

// TestLiveServiceChaosFailover is the service-layer smoke over the
// real TCP mesh under fault injection: three sites open the sharded
// store, two of them serve an open-loop load rung, and the third — a
// pure library site running no load workers — is fail-stopped mid-run.
// The load harness's liveness invariant (every admitted op completes,
// queues stay bounded) must hold through the crash and the failover,
// post-failover writes must converge, and the checked wall-clock trace
// must verify coherent.
func TestLiveServiceChaosFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock chaos run")
	}
	plan, err := ParseFaultPlan("seed=7; delay p=0.05 max=2ms; crash site=2 from=600ms")
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
		Failover: &Failover{},
		Obs:      NewObs(),
		Check:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cfg := StoreConfig{Shards: 3, SlotsPerShard: 32, SlotSize: 64}
	stores, err := c.OpenStores(cfg)
	if err != nil {
		t.Fatal(err)
	}

	spec := load.Spec{
		Seed:      1,
		Rate:      40,
		Duration:  1500 * time.Millisecond,
		Frontends: 4, // sites 0 and 1 serve two lanes each; site 2 is library only
		QueueCap:  32,
		Keys:      24,
		ReadFrac:  0.7,
		CASFrac:   0.1,
		ValBytes:  16,
		Skew:      load.SkewUniform,
	}.WithDefaults()
	spec.DeleteFrac = 0 // keep probes on pre-warmed pages

	// Pre-warm every key through a serving site, so each key's slot
	// pages have surviving holders when the library of shard 2 dies.
	for k := uint64(0); k < uint64(spec.Keys); k++ {
		if err := stores[0].Put(load.KeyBytes(k), load.ValBytes(k, spec.ValBytes)); err != nil {
			t.Fatalf("pre-warm key %d: %v", k, err)
		}
	}

	rung := load.RunLive(spec, func(frontend int, op load.Op) (bool, error) {
		return load.Execute(stores[frontend%2], spec, op)
	})
	if rung.Completed == 0 {
		t.Fatalf("no ops completed: %+v", rung)
	}
	if !rung.LivenessOK {
		t.Fatalf("liveness invariant violated through crash: %+v", rung)
	}
	if rung.Errors >= rung.Completed {
		t.Fatalf("mostly errors (%d of %d): no service through failover", rung.Errors, rung.Completed)
	}

	// A key homed on the crashed library's shard must become writable
	// again once the successor takes over.
	var key []byte
	for k := uint64(0); ; k++ {
		key = load.KeyBytes(k % uint64(spec.Keys))
		if cfg.WithDefaults().ShardOf(key) == 2 || k > 1<<16 {
			break
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		err := stores[1].Put(key, []byte("post-failover"))
		if err == nil {
			break
		}
		if !errors.Is(err, ErrUnreachable) && !errors.Is(err, ErrShardBusy) {
			t.Fatalf("post-crash put: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("post-crash put never succeeded: no takeover")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got, err := stores[0].Get(key); err != nil || string(got) != "post-failover" {
		t.Fatalf("post-failover get = %q, %v", got, err)
	}

	var sawFailover bool
	for _, ev := range c.Obs().Buffer().Events() {
		if ev.Type == obs.EvFailover {
			sawFailover = true
			break
		}
	}
	if !sawFailover {
		t.Fatal("trace has no failover event despite library crash")
	}

	// Both serving frontends attributed ops to the store.
	for i := 0; i < 2; i++ {
		if stores[i].Stats().Total().Ops() == 0 {
			t.Fatalf("site-%d frontend recorded no ops", i)
		}
	}
	if c.Obs().Metrics.Total(obs.CAppOp) == 0 {
		t.Fatal("cluster obs recorded no app ops")
	}

	viols, err := c.VerifyTrace()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range viols {
		t.Errorf("coherence violation in service trace: %v", v)
	}
}
