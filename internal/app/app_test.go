package app

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mirage/internal/obs"
)

// memSeg is an in-memory Segment for layout and logic tests: the same
// atomicity the DSM provides (whole-call serialization), delivered by
// a mutex.
type memSeg struct {
	mu sync.Mutex
	b  []byte
}

func newMemSeg(n int) *memSeg { return &memSeg{b: make([]byte, n)} }

func (m *memSeg) ReadAt(b []byte, off int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off < 0 || off+len(b) > len(m.b) {
		return fmt.Errorf("memSeg: out of bounds [%d,%d) of %d", off, off+len(b), len(m.b))
	}
	copy(b, m.b[off:])
	return nil
}

func (m *memSeg) WriteAt(b []byte, off int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off < 0 || off+len(b) > len(m.b) {
		return fmt.Errorf("memSeg: out of bounds [%d,%d) of %d", off, off+len(b), len(m.b))
	}
	copy(m.b[off:], b)
	return nil
}

func (m *memSeg) TestAndSet(off int) (byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.b[off]
	m.b[off] = 1
	return old, nil
}

func (m *memSeg) Clear(off int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.b[off] = 0
	return nil
}

func newTestStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	return newTestStoreOpt(t, cfg, Options{Obs: obs.New()})
}

func newTestStoreOpt(t *testing.T, cfg Config, opt Options) *Store {
	t.Helper()
	cfg = cfg.WithDefaults()
	segs := make([]Segment, cfg.Shards)
	for i := range segs {
		seg := newMemSeg(cfg.ShardBytes())
		if err := Format(seg, cfg, i); err != nil {
			t.Fatalf("format shard %d: %v", i, err)
		}
		if err := CheckShard(seg, cfg, i); err != nil {
			t.Fatalf("check shard %d: %v", i, err)
		}
		segs[i] = seg
	}
	st, err := New(cfg, segs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"SlotSize 100 does not divide 512", Config{SlotSize: 100}},
		{"SlotSize below record header", Config{SlotSize: 4}},
		{"SlotSize above PageSize", Config{PageSize: 256, SlotSize: 512}},
		{"negative Shards", Config{Shards: -1}},
		{"negative SlotsPerShard", Config{SlotsPerShard: -1}},
	} {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s (%+v): Validate accepted it", tc.name, tc.cfg)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	c := Config{}.WithDefaults()
	if c.ShardBytes()%c.PageSize != 0 {
		t.Fatalf("ShardBytes %d not page-aligned", c.ShardBytes())
	}
}

func TestCheckShardRejects(t *testing.T) {
	cfg := Config{}.WithDefaults()
	seg := newMemSeg(cfg.ShardBytes())
	if err := CheckShard(seg, cfg, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unformatted shard: got %v, want ErrCorrupt", err)
	}
	if err := Format(seg, cfg, 3); err != nil {
		t.Fatal(err)
	}
	if err := CheckShard(seg, cfg, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong shard index: got %v, want ErrCorrupt", err)
	}
	if err := CheckShard(seg, cfg, 3); err != nil {
		t.Fatalf("matching shard: %v", err)
	}
	other := cfg
	other.SlotsPerShard = cfg.SlotsPerShard * 2
	if err := CheckShard(seg, other, 3); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("geometry mismatch: got %v, want ErrCorrupt", err)
	}
	// A shard in the old layout, whose writer lock sat in the header
	// and whose slots have no lock byte, is refused.
	if err := seg.WriteAt([]byte("MKV1"), hdrMagic); err != nil {
		t.Fatal(err)
	}
	if err := CheckShard(seg, cfg, 3); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("MKV1 header: got %v, want ErrCorrupt", err)
	}
}

func TestCRUD(t *testing.T) {
	st := newTestStore(t, Config{})
	key := []byte("session-1")
	if _, err := st.Get(key); !errors.Is(err, ErrNoKey) {
		t.Fatalf("get absent: %v", err)
	}
	if err := st.Put(key, []byte("alice")); err != nil {
		t.Fatal(err)
	}
	v, err := st.Get(key)
	if err != nil || string(v) != "alice" {
		t.Fatalf("get: %q, %v", v, err)
	}
	if seq, _ := st.Seq(key); seq != 1 {
		t.Fatalf("seq after insert: %d", seq)
	}
	// Update in place bumps the sequence.
	if err := st.Put(key, []byte("bob")); err != nil {
		t.Fatal(err)
	}
	v, _ = st.Get(key)
	if string(v) != "bob" {
		t.Fatalf("get after update: %q", v)
	}
	if seq, _ := st.Seq(key); seq != 2 {
		t.Fatalf("seq after update: %d", seq)
	}
	if err := st.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(key); !errors.Is(err, ErrNoKey) {
		t.Fatalf("get after delete: %v", err)
	}
	if err := st.Delete(key); !errors.Is(err, ErrNoKey) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestCAS(t *testing.T) {
	st := newTestStore(t, Config{})
	key := []byte("k")
	// Compare-and-create.
	ok, err := st.CAS(key, nil, []byte("v1"))
	if err != nil || !ok {
		t.Fatalf("cas create: %v %v", ok, err)
	}
	// Create again fails as a conflict.
	ok, err = st.CAS(key, nil, []byte("v2"))
	if err != nil || ok {
		t.Fatalf("cas re-create: %v %v", ok, err)
	}
	// Wrong expectation.
	ok, err = st.CAS(key, []byte("nope"), []byte("v2"))
	if err != nil || ok {
		t.Fatalf("cas wrong old: %v %v", ok, err)
	}
	// Right expectation.
	ok, err = st.CAS(key, []byte("v1"), []byte("v2"))
	if err != nil || !ok {
		t.Fatalf("cas: %v %v", ok, err)
	}
	v, _ := st.Get(key)
	if string(v) != "v2" {
		t.Fatalf("after cas: %q", v)
	}
	// CAS of an absent key with a non-nil expectation.
	if _, err := st.CAS([]byte("absent"), []byte("x"), []byte("y")); !errors.Is(err, ErrNoKey) {
		t.Fatalf("cas absent: %v", err)
	}
	total := st.Stats().Total()
	if total.Conflicts != 2 {
		t.Fatalf("conflicts: %d, want 2", total.Conflicts)
	}
}

func TestProbeCollisionsAndTombstoneReuse(t *testing.T) {
	// A single tiny shard forces every key into the same probe chain.
	cfg := Config{Shards: 1, SlotsPerShard: 8, SlotSize: 64}
	st := newTestStore(t, cfg)
	keys := make([][]byte, 6)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%02d", i))
		if err := st.Put(keys[i], []byte{byte(i)}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i, k := range keys {
		v, err := st.Get(k)
		if err != nil || v[0] != byte(i) {
			t.Fatalf("get %d: %v %v", i, v, err)
		}
	}
	// Delete one, insert another: the tombstone is reused and the keys
	// probing past it stay reachable.
	if err := st.Delete(keys[2]); err != nil {
		t.Fatal(err)
	}
	if err := st.Put([]byte("key-xx"), []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if i == 2 {
			continue
		}
		v, err := st.Get(k)
		if err != nil || v[0] != byte(i) {
			t.Fatalf("get %d after churn: %v %v", i, v, err)
		}
	}
	if v, err := st.Get([]byte("key-xx")); err != nil || v[0] != 0xAA {
		t.Fatalf("get reused slot: %v %v", v, err)
	}
}

func TestShardFull(t *testing.T) {
	cfg := Config{Shards: 1, SlotsPerShard: 4, SlotSize: 64}
	st := newTestStore(t, cfg)
	var err error
	for i := 0; i < 5; i++ {
		err = st.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrShardFull) {
		t.Fatalf("overfill: %v, want ErrShardFull", err)
	}
}

func TestTooLarge(t *testing.T) {
	st := newTestStore(t, Config{})
	big := bytes.Repeat([]byte("x"), st.Config().SlotSize)
	if err := st.Put([]byte("k"), big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize value: %v", err)
	}
	if err := st.Put(nil, []byte("v")); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("empty key: %v", err)
	}
	// A one-byte key leaves the slot less its header, the key and the
	// lock byte; a value of exactly that size fits.
	max := st.Config().MaxValue(1)
	if max != st.Config().SlotSize-slotHdr-2 {
		t.Fatalf("MaxValue: %d", max)
	}
	if err := st.Put([]byte("k"), bytes.Repeat([]byte("x"), max+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("value one byte over MaxValue: %v", err)
	}
	if err := st.Put([]byte("k"), bytes.Repeat([]byte("x"), max)); err != nil {
		t.Fatalf("value of MaxValue bytes: %v", err)
	}
	if v, err := st.Get([]byte("k")); err != nil || len(v) != max {
		t.Fatalf("get of MaxValue bytes: %d bytes, %v", len(v), err)
	}
}

func TestShardSpread(t *testing.T) {
	cfg := Config{Shards: 8}.WithDefaults()
	var seen [8]int
	for i := 0; i < 1000; i++ {
		seen[cfg.ShardOf([]byte(fmt.Sprintf("user-%d", i)))]++
	}
	for s, n := range seen {
		if n == 0 {
			t.Fatalf("shard %d never chosen over 1000 keys", s)
		}
	}
}

func TestLibraryForRendezvous(t *testing.T) {
	// Single site owns everything.
	one := Config{Shards: 8, Sites: 1}
	for s := 0; s < 8; s++ {
		if one.LibraryFor(s) != 0 {
			t.Fatalf("Sites=1: shard %d placed at %d", s, one.LibraryFor(s))
		}
	}
	// Placement is deterministic, in range, and touches every site when
	// shards comfortably outnumber sites.
	cfg := Config{Shards: 64, Sites: 5}
	used := map[int]int{}
	for s := 0; s < 64; s++ {
		lib := cfg.LibraryFor(s)
		if lib < 0 || lib >= 5 {
			t.Fatalf("shard %d placed at out-of-range site %d", s, lib)
		}
		if lib != cfg.LibraryFor(s) {
			t.Fatalf("shard %d placement not deterministic", s)
		}
		used[lib]++
	}
	if len(used) != 5 {
		t.Fatalf("64 shards over 5 sites used only sites %v", used)
	}
	// The rendezvous property: adding one site moves only the shards it
	// wins. Everything that stays must keep its exact library.
	grown := Config{Shards: 64, Sites: 6}
	moved := 0
	for s := 0; s < 64; s++ {
		was, is := cfg.LibraryFor(s), grown.LibraryFor(s)
		if was != is {
			if is != 5 {
				t.Fatalf("shard %d moved %d -> %d, not to the new site", s, was, is)
			}
			moved++
		}
	}
	if moved == 0 || moved > 32 {
		t.Fatalf("growing 5 -> 6 sites moved %d of 64 shards", moved)
	}
}

func TestLockContention(t *testing.T) {
	// Hammer one shard from many goroutines: every put lands, the lock
	// serializes, and every collision is counted once, with one backoff.
	cfg := Config{Shards: 1, SlotsPerShard: 64, SlotSize: 64}
	var sleeps atomic.Int64
	st := newTestStoreOpt(t, cfg, Options{Sleep: func(d time.Duration) {
		sleeps.Add(1)
		time.Sleep(d)
	}})
	const g, n = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, g)
	for w := 0; w < g; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := []byte(fmt.Sprintf("w%d", w))
			for i := 0; i < n; i++ {
				if err := st.Put(key, []byte{byte(i)}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < g; w++ {
		v, err := st.Get([]byte(fmt.Sprintf("w%d", w)))
		if err != nil || v[0] != n-1 {
			t.Fatalf("w%d: %v %v", w, v, err)
		}
	}
	if seq, _ := st.Seq([]byte("w0")); seq != n {
		t.Fatalf("seq: %d, want %d", seq, n)
	}
	if c := st.Stats().Total().Conflicts; c != sleeps.Load() {
		t.Fatalf("conflicts %d, backoffs %d: want one backoff per collision", c, sleeps.Load())
	}
}

func TestShardBusyOnWedgedLock(t *testing.T) {
	var slept []time.Duration
	st := newTestStoreOpt(t, Config{Shards: 1}, Options{Sleep: func(d time.Duration) { slept = append(slept, d) }})
	// Wedge the key's home-slot lock as a crashed holder would.
	if _, err := st.segs[0].TestAndSet(st.cfg.lockOff(st.cfg.homeSlot([]byte("k")))); err != nil {
		t.Fatal(err)
	}
	if err := st.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrShardBusy) {
		t.Fatalf("wedged lock: %v, want ErrShardBusy", err)
	}
	// The whole budget is spent: one conflict and one backoff per try,
	// the backoff doubling from lockBackoff and capped at 64 times it.
	if c := st.Stats().Total().Conflicts; c != lockRetries {
		t.Fatalf("conflicts %d, want %d", c, lockRetries)
	}
	want := make([]time.Duration, lockRetries)
	for i, d := 0, time.Duration(lockBackoff); i < lockRetries; i++ {
		want[i] = d
		d = min(2*d, 64*lockBackoff)
	}
	if fmt.Sprint(slept) != fmt.Sprint(want) {
		t.Fatalf("backoffs %v, want %v", slept, want)
	}
	// Gets stay lock-free and keep serving.
	if _, err := st.Get([]byte("k")); !errors.Is(err, ErrNoKey) {
		t.Fatalf("get under wedged lock: %v", err)
	}
}

func TestStatsAttribution(t *testing.T) {
	cfg := Config{Shards: 4}
	st := newTestStore(t, cfg)
	key := []byte("hot")
	shard := st.Config().ShardOf(key)
	for i := 0; i < 10; i++ {
		if err := st.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	s := st.Stats().Shard(shard)
	if s.Puts != 10 || s.Gets != 10 || s.Hits != 19 || s.Misses != 1 {
		t.Fatalf("shard counters: %+v", s)
	}
	for i := 0; i < st.Stats().Shards(); i++ {
		if i != shard && st.Stats().Shard(i).Ops() != 0 {
			t.Fatalf("traffic leaked to shard %d", i)
		}
	}
	var out bytes.Buffer
	if _, err := st.Stats().WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("total")) {
		t.Fatalf("stats table missing totals: %s", out.String())
	}
	if st.Stats().Digest() == "" {
		t.Fatal("empty digest")
	}
}

// hookSeg runs before once, just ahead of the first TestAndSet of off.
type hookSeg struct {
	Segment
	off    int
	before func()
}

func (h *hookSeg) TestAndSet(off int) (byte, error) {
	if f := h.before; off == h.off && f != nil {
		h.before = nil
		f()
	}
	return h.Segment.TestAndSet(off)
}

// An insert locks its target slot after the probe chose it. When
// another key fills that slot in between, the insert must read the slot
// again under its lock and probe on, or it overwrites the other record.
func TestInsertRechecksTargetSlot(t *testing.T) {
	cfg := Config{Shards: 1, SlotsPerShard: 8, SlotSize: 64}.WithDefaults()
	other := newTestStore(t, cfg)
	keyAt := func(home int, not string) []byte { return keyHomedAt(cfg, home, not) }
	// x takes slot 2; a, homed there too, probes on to slot 3, which b
	// (homed at 3) fills between a's probe and a's lock of slot 3.
	x, b := keyAt(2, ""), keyAt(3, "")
	a := keyAt(2, string(x))
	if err := other.Put(x, []byte("x")); err != nil {
		t.Fatal(err)
	}
	seg := &hookSeg{Segment: other.segs[0], off: cfg.lockOff(3), before: func() {
		if err := other.Put(b, []byte("b")); err != nil {
			t.Error(err)
		}
	}}
	st, err := New(cfg, []Segment{seg}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(a, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if seg.before != nil {
		t.Fatal("the insert never locked slot 3")
	}
	for k, want := range map[string]string{string(x): "x", string(a): "a", string(b): "b"} {
		if v, err := st.Get([]byte(k)); err != nil || string(v) != want {
			t.Errorf("key %s: %q, %v; want %q", k, v, err, want)
		}
	}
}

// keyHomedAt returns the first key "k<i>" other than not whose home
// slot is home.
func keyHomedAt(cfg Config, home int, not string) []byte {
	for i := 0; ; i++ {
		if k := []byte(fmt.Sprintf("k%d", i)); cfg.homeSlot(k) == home && string(k) != not {
			return k
		}
	}
}

// An insert that finds its target slot's lock held backs off holding no
// lock. Were it to wait holding its home slot's lock, an insert holding
// the target and wanting that home slot would deadlock against it until
// both budgets ran out.
func TestInsertBacksOffHoldingNoLock(t *testing.T) {
	cfg := Config{Shards: 1, SlotsPerShard: 8, SlotSize: 64}.WithDefaults()
	var st *Store
	sleeps := 0
	st = newTestStoreOpt(t, cfg, Options{Sleep: func(time.Duration) {
		sleeps++
		old, err := st.segs[0].TestAndSet(cfg.lockOff(2))
		if err != nil || old != 0 {
			t.Fatalf("backing off with the home slot's lock held (%d, %v)", old, err)
		}
		st.unlock(0, 2)
		st.unlock(0, 3) // the other insert lets go of slot 3
	}})
	// x takes slot 2; a, homed there too, inserts into slot 3, whose
	// lock another insert holds.
	x := keyHomedAt(cfg, 2, "")
	a := keyHomedAt(cfg, 2, string(x))
	if err := st.Put(x, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.segs[0].TestAndSet(cfg.lockOff(3)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(a, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if sleeps != 1 || st.Stats().Total().Conflicts != 1 {
		t.Fatalf("%d backoffs, %d conflicts; want 1 and 1", sleeps, st.Stats().Total().Conflicts)
	}
	// Two inserts, two misses: the retried one counts its probe once.
	if c := st.Stats().Total(); c.Misses != 2 || c.Hits != 0 {
		t.Fatalf("hits %d, misses %d; want 0 and 2", c.Hits, c.Misses)
	}
	for k, want := range map[string]string{string(x): "x", string(a): "a"} {
		if v, err := st.Get([]byte(k)); err != nil || string(v) != want {
			t.Errorf("key %s: %q, %v; want %q", k, v, err, want)
		}
	}
}
