package mirage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func smallStoreConfig() StoreConfig {
	return StoreConfig{Shards: 4, SlotsPerShard: 8, SlotSize: 64}
}

// TestOpenStoresCrossSite: every site's frontend serves every key, and
// a write through one site is readable through the others — the DSM
// moves the shard pages to the accessor.
func TestOpenStoresCrossSite(t *testing.T) {
	c, err := NewCluster(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stores, err := c.OpenStores(smallStoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(stores) != 3 {
		t.Fatalf("got %d stores, want one per site", len(stores))
	}
	for i := 0; i < 8; i++ {
		key := []byte(fmt.Sprintf("session-%d", i))
		if err := stores[i%3].Put(key, []byte("v1")); err != nil {
			t.Fatalf("put %q via site %d: %v", key, i%3, err)
		}
		got, err := stores[(i+1)%3].Get(key)
		if err != nil || !bytes.Equal(got, []byte("v1")) {
			t.Fatalf("get %q via site %d = %q, %v", key, (i+1)%3, got, err)
		}
	}

	// CAS through one site observed through another.
	key := []byte("session-0")
	swapped, err := stores[2].CAS(key, []byte("v1"), []byte("v2"))
	if err != nil || !swapped {
		t.Fatalf("CAS = %v, %v; want swap", swapped, err)
	}
	if got, _ := stores[0].Get(key); !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("post-CAS get = %q, want v2", got)
	}

	// Delete, then the re-exported error surfaces.
	if err := stores[1].Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := stores[0].Get(key); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("get deleted key = %v, want ErrKeyNotFound", err)
	}

	// Each frontend attributes its own ops.
	if stores[0].Stats().Total().Ops() == 0 {
		t.Fatal("site-0 frontend recorded no ops")
	}
}

// TestOpenStoreSingleSite: the per-site opener on a one-site cluster
// creates everything itself.
func TestOpenStoreSingleSite(t *testing.T) {
	c, err := NewCluster(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Site(0).OpenStore(smallStoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Get([]byte("k")); err != nil || string(got) != "v" {
		t.Fatalf("get = %q, %v", got, err)
	}
}

// TestOpenStoreRejectsMismatchedConfig: a site joining with different
// geometry is refused by the header check, not silently corrupted.
func TestOpenStoreRejectsMismatchedConfig(t *testing.T) {
	c, err := NewCluster(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.OpenStores(smallStoreConfig()); err != nil {
		t.Fatal(err)
	}
	// Same ShardBytes (so shmget still matches), different slot
	// geometry: only the header check can catch this.
	bad := smallStoreConfig()
	bad.SlotsPerShard = 4
	bad.SlotSize = 128
	// Site 1 is the library of shard 1; shard 0 exists with other
	// geometry, so the attach-side check must fire.
	if _, err := c.Site(0).OpenStore(bad); !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("mismatched open = %v, want ErrStoreCorrupt", err)
	}
}

// TestOpenStoresRefusesBadGeometry: a store config with no shards or
// no slots is an error from OpenStores and OpenStore, not a panic and
// not a store whose every Put fails.
func TestOpenStoresRefusesBadGeometry(t *testing.T) {
	c, err := NewCluster(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, cfg := range []StoreConfig{
		{Shards: -1},
		{SlotsPerShard: -1},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("OpenStores(%+v) panicked: %v", cfg, r)
				}
			}()
			if _, err := c.OpenStores(cfg); err == nil {
				t.Errorf("OpenStores(%+v) opened a store", cfg)
			}
			if _, err := c.Site(0).OpenStore(cfg); err == nil {
				t.Errorf("OpenStore(%+v) opened a store", cfg)
			}
		}()
	}
}

// TestStoreShardFull: overfilling one shard surfaces ErrShardFull
// rather than evicting.
func TestStoreShardFull(t *testing.T) {
	c, err := NewCluster(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := StoreConfig{Shards: 1, SlotsPerShard: 4, SlotSize: 64}
	st, err := c.Site(0).OpenStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var full bool
	for i := 0; i < 16; i++ {
		err := st.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
		if errors.Is(err, ErrShardFull) {
			full = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !full {
		t.Fatal("16 puts into 4 slots never reported ErrShardFull")
	}
}
