package mirage

import (
	"testing"
	"time"

	"mirage/internal/load"
	"mirage/internal/obs"
)

// TestLiveMigrationUnderLoad drives the sharded store over the real TCP
// mesh with every client request entering through site 0 while the
// rendezvous placement homes some shards at sites 1 and 2. A low-rate
// remote reader keeps invalidating site 0's copies so the off-site
// libraries see a sustained, heavily skewed request stream — exactly
// the signal Options.Placement exists for. At least one shard must
// voluntarily rehome to site 0 mid-load, with no admitted op lost
// (liveness: admitted == completed), service continuing across the
// handoff, and the checked wall-clock trace verifying coherent.
func TestLiveMigrationUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock migration run")
	}
	c, err := NewCluster(3, Options{
		TCP: true,
		Reliability: &Reliability{
			AckTimeout:  5 * time.Millisecond,
			MaxBackoff:  40 * time.Millisecond,
			MaxAttempts: 6,
		},
		Failover: &Failover{},
		Placement: &Placement{
			Window:      50 * time.Millisecond,
			MinRequests: 6,
			Share:       0.6,
			PingPong:    0.8,
			Cooldown:    5 * time.Second,
		},
		Obs:   NewObs(),
		Check: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cfg := StoreConfig{Shards: 4, SlotsPerShard: 32, SlotSize: 64}
	stores, err := c.OpenStores(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pc := cfg.WithDefaults()
	pc.Sites = c.Sites() // OpenStores fills Sites on its own copy
	offHome := 0
	for s := 0; s < pc.Shards; s++ {
		if pc.LibraryFor(s) != 0 {
			offHome++
		}
	}
	if offHome == 0 {
		t.Fatal("rendezvous placement homed every shard at site 0; no migration to provoke")
	}

	spec := load.Spec{
		Seed:      3,
		Rate:      200,
		Duration:  1500 * time.Millisecond,
		Frontends: 2,
		QueueCap:  64,
		Keys:      24,
		ReadFrac:  0.3, // write-heavy: upgrades keep the libraries busy
		ValBytes:  16,
		Skew:      load.SkewUniform,
	}.WithDefaults()
	spec.DeleteFrac = 0
	spec.CASFrac = 0

	for k := uint64(0); k < uint64(spec.Keys); k++ {
		if err := stores[0].Put(load.KeyBytes(k), load.ValBytes(k, spec.ValBytes)); err != nil {
			t.Fatalf("pre-warm key %d: %v", k, err)
		}
	}

	// Remote reader: one key every 25ms from site 1, just enough
	// cross-site traffic to keep site 0 re-faulting (sustained demand)
	// without rivalling it in the demand window (no ping-pong refusal).
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for k := uint64(0); ; k++ {
			select {
			case <-stop:
				return
			case <-tick.C:
				stores[1].Get(load.KeyBytes(k % uint64(spec.Keys)))
			}
		}
	}()

	rung := load.RunLive(spec, func(_ int, op load.Op) (bool, error) {
		return load.Execute(stores[0], spec, op)
	})
	close(stop)
	<-readerDone

	if rung.Completed == 0 {
		t.Fatalf("no ops completed: %+v", rung)
	}
	if !rung.LivenessOK || rung.Admitted != rung.Completed {
		t.Fatalf("ops lost across migration: admitted=%d completed=%d liveness=%v",
			rung.Admitted, rung.Completed, rung.LivenessOK)
	}
	if rung.Errors > 0 {
		t.Fatalf("%d of %d ops errored across migration", rung.Errors, rung.Completed)
	}

	migrations := 0
	for i := 0; i < 3; i++ {
		migrations += c.Site(i).Stats().Migrations
	}
	if migrations == 0 {
		t.Fatalf("no shard migrated under %d off-home shards and one-sided demand", offHome)
	}
	sawMigrate := false
	for _, ev := range c.Obs().Buffer().Events() {
		if ev.Type == obs.EvMigrate {
			sawMigrate = true
			break
		}
	}
	if !sawMigrate {
		t.Fatal("stats count migrations but trace has no EvMigrate event")
	}

	// Service must still work through all frontends after the rehome.
	key := load.KeyBytes(1)
	if err := stores[2].Put(key, []byte("post-migration")); err != nil {
		t.Fatalf("post-migration put: %v", err)
	}
	if got, err := stores[0].Get(key); err != nil || string(got) != "post-migration" {
		t.Fatalf("post-migration get = %q, %v", got, err)
	}

	viols, err := c.VerifyTrace()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range viols {
		t.Errorf("coherence violation in migrated trace: %v", v)
	}
}
