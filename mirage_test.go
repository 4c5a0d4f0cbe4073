package mirage

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newTestCluster(t *testing.T, n int, opts Options) *Cluster {
	t.Helper()
	c, err := NewCluster(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClusterSizeValidation(t *testing.T) {
	if _, err := NewCluster(0, Options{}); err == nil {
		t.Fatal("size 0 should fail")
	}
	if _, err := NewCluster(MaxSites+1, Options{}); !errors.Is(err, ErrTooManySites) {
		t.Fatalf("size %d: want ErrTooManySites, got %v", MaxSites+1, err)
	}
	// 65 sites used to be rejected; the copyset spill form lifted that.
	c, err := NewCluster(65, Options{})
	if err != nil {
		t.Fatalf("size 65 should be accepted now: %v", err)
	}
	c.Close()
}

func TestLocalReadWrite(t *testing.T) {
	c := newTestCluster(t, 1, Options{})
	s := c.Site(0)
	id, err := s.Shmget(1, 4096, Create, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := s.Attach(id, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.SetUint32(100, 0xCAFEBABE); err != nil {
		t.Fatal(err)
	}
	v, err := seg.Uint32(100)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xCAFEBABE {
		t.Fatalf("got %#x", v)
	}
	if seg.Size() != 4096 || seg.PageSize() != 512 || seg.ID() != id {
		t.Fatalf("metadata: %d %d %d", seg.Size(), seg.PageSize(), seg.ID())
	}
}

func TestCrossSiteCoherence(t *testing.T) {
	c := newTestCluster(t, 3, Options{})
	id, err := c.Site(0).Shmget(7, 2048, Create, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Site(0).Attach(id, false)
	b, _ := c.Site(1).Attach(id, false)
	d, _ := c.Site(2).Attach(id, false)

	if err := a.SetUint32(0, 11); err != nil {
		t.Fatal(err)
	}
	if v, _ := b.Uint32(0); v != 11 {
		t.Fatalf("site1 read %d", v)
	}
	if err := d.SetUint32(0, 22); err != nil {
		t.Fatal(err)
	}
	if v, _ := a.Uint32(0); v != 22 {
		t.Fatalf("site0 read %d", v)
	}
	if v, _ := b.Uint32(0); v != 22 {
		t.Fatalf("site1 read %d", v)
	}
}

func TestBulkDataAcrossPages(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	id, _ := c.Site(0).Shmget(7, 8192, Create, 0o600)
	a, _ := c.Site(0).Attach(id, false)
	b, _ := c.Site(1).Attach(id, false)

	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := a.WriteAt(data, 123); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5000)
	if err := b.ReadAt(got, 123); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("bulk data corrupted crossing sites and pages")
	}
}

func TestLastDetachDestroys(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	id, _ := c.Site(0).Shmget(7, 512, Create, 0o600)
	a, _ := c.Site(0).Attach(id, false)
	b, _ := c.Site(1).Attach(id, false)
	b.SetUint32(0, 5)
	if err := b.Detach(); err != nil {
		t.Fatal(err)
	}
	if err := a.Detach(); err != nil {
		t.Fatal(err)
	}
	// Key free again.
	if _, err := c.Site(1).Shmget(7, 512, Create|Exclusive, 0o600); err != nil {
		t.Fatalf("key not released: %v", err)
	}
}

func TestRemoteReleaseReturnsData(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	id, _ := c.Site(0).Shmget(7, 512, Create, 0o600)
	a, _ := c.Site(0).Attach(id, false)
	b, _ := c.Site(1).Attach(id, false)
	b.SetUint32(0, 321) // site 1 becomes writer
	if err := b.Detach(); err != nil {
		t.Fatal(err)
	}
	// Site 0 must still see the data after site 1's pages went home.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := a.Uint32(0)
		if err != nil {
			t.Fatal(err)
		}
		if v == 321 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("data lost after release: %d", v)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDeltaRetainsPage(t *testing.T) {
	delta := 120 * time.Millisecond
	c := newTestCluster(t, 2, Options{Delta: delta})
	id, _ := c.Site(0).Shmget(7, 512, Create, 0o600)
	a, _ := c.Site(0).Attach(id, false)
	b, _ := c.Site(1).Attach(id, false)

	// Site 1 takes the page with a fresh window...
	if err := b.SetUint32(0, 1); err != nil {
		t.Fatal(err)
	}
	// ...so site 0's write must wait out most of Δ.
	start := time.Now()
	if err := a.SetUint32(0, 2); err != nil {
		t.Fatal(err)
	}
	waited := time.Since(start)
	if waited < delta/2 {
		t.Fatalf("write granted after %v; Δ=%v window not enforced", waited, delta)
	}
	if waited > delta+2*time.Second {
		t.Fatalf("write granted after %v; far beyond Δ", waited)
	}
}

func TestSetSegmentDelta(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	id, _ := c.Site(0).Shmget(7, 512, Create, 0o600)
	if err := c.Site(0).SetSegmentDelta(id, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Refusals are typed: nothing on the loop is recovered and relabelled.
	if err := c.Site(1).SetSegmentDelta(id, 50*time.Millisecond); !errors.Is(err, ErrNotLibrary) {
		t.Fatalf("non-library site: err = %v, want ErrNotLibrary", err)
	}
	if err := c.Site(0).SetSegmentDelta(id+1, 50*time.Millisecond); !errors.Is(err, ErrNotLibrary) {
		t.Fatalf("unknown segment: err = %v, want ErrNotLibrary", err)
	}
	if err := c.Site(0).SetSegmentDelta(id, -time.Millisecond); !errors.Is(err, ErrNegativeDelta) {
		t.Fatalf("negative Δ: err = %v, want ErrNegativeDelta", err)
	}
}

// TestSetSegmentDeltaFollowsLibrary: "the segment's library site" is
// the site that holds the role now. After a voluntary migration the new
// library accepts a Δ change and the creating site refuses it.
func TestSetSegmentDeltaFollowsLibrary(t *testing.T) {
	c := newTestCluster(t, 2, Options{
		Reliability: &Reliability{},
		Failover:    &Failover{},
		Placement: &Placement{
			Window: 10 * time.Millisecond, MinRequests: 4,
			Share: 0.5, PingPong: 0.8, Cooldown: time.Hour,
		},
	})
	id, err := c.Site(0).Shmget(7, 512, Create, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	a0, err := c.Site(0).Attach(id, false)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := c.Site(1).Attach(id, false)
	if err != nil {
		t.Fatal(err)
	}
	// Two requests from site 1 (read fault, then upgrade) for each one
	// from site 0: site 1 dominates without it being ping-pong.
	deadline := time.Now().Add(10 * time.Second)
	for i := uint32(1); c.Site(1).Stats().Migrations == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("no voluntary migration to site 1")
		}
		if err := a0.SetUint32(0, i); err != nil {
			t.Fatal(err)
		}
		if _, err := a1.Uint32(0); err != nil {
			t.Fatal(err)
		}
		if err := a1.SetUint32(0, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Site(1).SetSegmentDelta(id, 5*time.Millisecond); err != nil {
		t.Fatalf("new library: %v", err)
	}
	// The old library deposes itself on the successor's confirmation, one
	// message behind the successor's own count; a request of its own is
	// served only once it has.
	if err := a0.SetUint32(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Site(0).SetSegmentDelta(id, 5*time.Millisecond); !errors.Is(err, ErrNotLibrary) {
		t.Fatalf("old library after the handoff: err = %v, want ErrNotLibrary", err)
	}
}

func TestPermissions(t *testing.T) {
	c := newTestCluster(t, 1, Options{})
	id, err := c.Site(0).ShmgetAs(7, 512, Create, 0o600, 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Site(0).AttachAs(id, false, 99); !errors.Is(err, ErrPermission) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Site(0).AttachAs(id, false, 42); err != nil {
		t.Fatal(err)
	}
}

func TestTestAndSetMutualExclusion(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	id, _ := c.Site(0).Shmget(7, 512, Create, 0o600)
	a, _ := c.Site(0).Attach(id, false)
	b, _ := c.Site(1).Attach(id, false)

	const iters = 40
	var wg sync.WaitGroup
	worker := func(seg *Segment) {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			for {
				old, err := seg.TestAndSet(0)
				if err != nil {
					t.Errorf("tas: %v", err)
					return
				}
				if old == 0 {
					break
				}
			}
			v, _ := seg.Uint32(4)
			seg.SetUint32(4, v+1)
			seg.Clear(0)
		}
	}
	wg.Add(2)
	go worker(a)
	go worker(b)
	wg.Wait()
	v, _ := a.Uint32(4)
	if v != 2*iters {
		t.Fatalf("counter = %d, want %d (lock not mutually exclusive)", v, 2*iters)
	}
}

func TestAddUint32Concurrent(t *testing.T) {
	c := newTestCluster(t, 3, Options{})
	id, _ := c.Site(0).Shmget(7, 512, Create, 0o600)
	var wg sync.WaitGroup
	const per = 50
	for i := 0; i < 3; i++ {
		seg, err := c.Site(i).Attach(id, false)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if _, err := seg.AddUint32(0, 1); err != nil {
					t.Errorf("add: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	seg, _ := c.Site(0).Attach(id, false)
	v, _ := seg.Uint32(0)
	if v != 3*per {
		t.Fatalf("counter = %d, want %d", v, 3*per)
	}
}

func TestTCPCluster(t *testing.T) {
	c := newTestCluster(t, 2, Options{TCP: true})
	id, _ := c.Site(0).Shmget(7, 1024, Create, 0o600)
	a, _ := c.Site(0).Attach(id, false)
	b, _ := c.Site(1).Attach(id, false)

	data := []byte("over real sockets")
	if err := a.WriteAt(data, 600); err != nil { // crosses into page 1
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := b.ReadAt(got, 600); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	b.SetUint32(0, 77)
	if v, _ := a.Uint32(0); v != 77 {
		t.Fatalf("read back %d", v)
	}
}

func TestCloseUnblocksAndErrors(t *testing.T) {
	c, err := NewCluster(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := c.Site(0).Shmget(7, 512, Create, 0o600)
	seg, _ := c.Site(0).Attach(id, false)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := seg.SetUint32(0, 1); !errors.Is(err, ErrDetached) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Site(0).Shmget(8, 512, Create, 0o600); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("double close must be fine")
	}
}

func TestQuickLiveCoherenceOracle(t *testing.T) {
	// Serialized random schedule across sites: every read observes the
	// latest completed write.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sites := 2 + rng.Intn(2)
		c, err := NewCluster(sites, Options{})
		if err != nil {
			return false
		}
		defer c.Close()
		id, err := c.Site(0).Shmget(5, 1024, Create, 0o600)
		if err != nil {
			return false
		}
		segs := make([]*Segment, sites)
		for i := range segs {
			if segs[i], err = c.Site(i).Attach(id, false); err != nil {
				return false
			}
		}
		oracle := map[int]uint32{}
		for i := 0; i < 30; i++ {
			s := rng.Intn(sites)
			off := 4 * rng.Intn(8)
			if rng.Intn(2) == 0 {
				v := uint32(i + 1)
				if segs[s].SetUint32(off, v) != nil {
					return false
				}
				oracle[off] = v
			} else {
				v, err := segs[s].Uint32(off)
				if err != nil || v != oracle[off] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveHidesKey(t *testing.T) {
	c := newTestCluster(t, 1, Options{})
	id, _ := c.Site(0).Shmget(7, 512, Create, 0o600)
	seg, _ := c.Site(0).Attach(id, false)
	if err := c.Site(0).Remove(id); err != nil {
		t.Fatal(err)
	}
	// Key is hidden immediately; the attach stays usable until detach.
	if _, err := c.Site(0).Shmget(7, 512, 0, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if err := seg.SetUint32(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := seg.Detach(); err != nil {
		t.Fatal(err)
	}
}

func TestAttachUnknownSegment(t *testing.T) {
	c := newTestCluster(t, 1, Options{})
	if _, err := c.Site(0).Attach(SegID(99), false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestExclusiveCreateConflict(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	if _, err := c.Site(0).Shmget(7, 512, Create, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Site(1).Shmget(7, 512, Create|Exclusive, 0o600); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestSegmentMetadataAndStats(t *testing.T) {
	c := newTestCluster(t, 2, Options{PageSize: 256})
	id, _ := c.Site(0).Shmget(7, 1000, Create, 0o600)
	a, _ := c.Site(0).Attach(id, false)
	if a.PageSize() != 256 {
		t.Fatalf("page size = %d", a.PageSize())
	}
	b, _ := c.Site(1).Attach(id, false)
	a.SetUint32(0, 1)
	b.Uint32(0)
	st := c.Site(0).Stats()
	if st.PagesSent == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}
