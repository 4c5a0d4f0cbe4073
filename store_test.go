package mirage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
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

// TestOpenStoreRefusesOldLayout: a shard stamped "MKV1", the layout with
// the writer lock in the header and none in the slots, is refused at
// its library site too, not reformatted.
func TestOpenStoreRefusesOldLayout(t *testing.T) {
	c := newTestCluster(t, 1, Options{})
	cfg := StoreConfig{Shards: 1}
	id, err := c.Site(0).Shmget(StoreKeyBase, cfg.WithDefaults().ShardBytes(), Create, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := c.Site(0).Attach(id, false)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Detach()
	if err := seg.WriteAt([]byte("MKV1"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Site(0).OpenStore(cfg); !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("open over an MKV1 shard = %v, want ErrStoreCorrupt", err)
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

// TestStorePutIsOneFault: a Put of a key another site wrote last takes
// the lock of the key's home slot first, and that TestAndSet's fault
// brings the page the Put then probes and writes: one write fault, no
// read fault. With the writer lock on the header page it was three.
func TestStorePutIsOneFault(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(map[bool]string{false: "inproc", true: "tcp"}[tcp], func(t *testing.T) {
			c := newTestCluster(t, 2, Options{TCP: tcp})
			stores, err := c.OpenStores(StoreConfig{Shards: 1, SlotsPerShard: 16, SlotSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			key := []byte("session-7")
			if err := stores[0].Put(key, []byte("site 0")); err != nil {
				t.Fatal(err)
			}
			before := c.Site(1).Stats()
			if err := stores[1].Put(key, []byte("site 1")); err != nil {
				t.Fatal(err)
			}
			after := c.Site(1).Stats()
			if w, r := after.WriteFaults-before.WriteFaults, after.ReadFaults-before.ReadFaults; w != 1 || r != 0 {
				t.Fatalf("site 1's Put made %d write and %d read faults, want 1 and 0", w, r)
			}
			if v, err := stores[0].Get(key); err != nil || string(v) != "site 1" {
				t.Fatalf("get at site 0: %q, %v", v, err)
			}
		})
	}
}

// homeSlot is the store's first probe slot for key: the high digits of
// its FNV-1a 64 hash (internal/app).
func homeSlot(key []byte, slots int) int {
	h := fnv.New64a()
	h.Write(key)
	return int((h.Sum64() >> 17) % uint64(slots))
}

// TestStoreCollidingMutations: goroutines at two sites Put, Delete and
// CAS keys whose home slots coincide, on a shard whose probe chains
// cross page boundaries (slot 7 into 8, and 15 around to 0). Every key
// has one owning goroutine, which knows what the key must hold. At the
// end a scan of the raw slots finds every key live at most once,
// holding its owner's last write.
func TestStoreCollidingMutations(t *testing.T) {
	const slots, perHome, owners, ops = 16, 3, 6, 5000
	c := newTestCluster(t, 2, Options{})
	cfg := StoreConfig{Shards: 1, SlotsPerShard: slots, SlotSize: 64}
	stores, err := c.OpenStores(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Three keys homed at each of slots 6, 7 and 15: 9 keys, live at
	// most, in 16 slots, every chain crossing a page of 8 slots.
	var keys [][]byte
	for _, home := range []int{6, 7, 15} {
		for i, n := 0, 0; n < perHome; i++ {
			if k := []byte(fmt.Sprintf("key-%d", i)); homeSlot(k, slots) == home {
				keys, n = append(keys, k), n+1
			}
		}
	}
	want := make([][]byte, len(keys)) // nil: absent
	var wg sync.WaitGroup
	for o := 0; o < owners; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			st, rng := stores[o%2], rand.New(rand.NewSource(int64(o)))
			for i := 0; i < ops; i++ {
				k := o + owners*rng.Intn(2)
				if k >= len(keys) {
					k = o
				}
				val := []byte(fmt.Sprintf("owner %d op %d", o, i))
				var err error
				switch op := rng.Intn(3); {
				case op == 0:
					err = st.Put(keys[k], val)
				case op == 1 && want[k] == nil:
					if err = st.Delete(keys[k]); errors.Is(err, ErrKeyNotFound) {
						continue
					}
					err = fmt.Errorf("delete of an absent key: %v", err)
				case op == 1:
					err, val = st.Delete(keys[k]), nil
				default:
					var ok bool
					if ok, err = st.CAS(keys[k], want[k], val); err == nil && !ok {
						err = errors.New("CAS against the owner's own last write lost")
					}
				}
				if err != nil {
					t.Errorf("owner %d op %d on %s: %v", o, i, keys[k], err)
					return
				}
				want[k] = val
			}
		}(o)
	}
	wg.Wait()

	// The raw scan: slot header is state, key length, value length
	// (2 bytes), sequence (4), then key and value; the lock is the
	// slot's last byte.
	id, err := c.Site(0).Shmget(StoreKeyBase, cfg.ShardBytes(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := c.Site(0).Attach(id, true)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Detach()
	live := map[string][]byte{}
	for i := 0; i < slots; i++ {
		b := make([]byte, cfg.SlotSize)
		if err := seg.ReadAt(b, 512+i*cfg.SlotSize); err != nil {
			t.Fatal(err)
		}
		if b[0] != 1 { // not SlotLive
			continue
		}
		kl, vl := int(b[1]), int(binary.LittleEndian.Uint16(b[2:]))
		k := string(b[8 : 8+kl])
		if _, dup := live[k]; dup {
			t.Errorf("key %s live twice", k)
		}
		live[k] = b[8+kl : 8+kl+vl]
	}
	for k, key := range keys {
		if got, ok := live[string(key)]; ok != (want[k] != nil) || !bytes.Equal(got, want[k]) {
			t.Errorf("key %s holds %q (live %v), its owner last wrote %q", key, got, ok, want[k])
		}
	}
}
