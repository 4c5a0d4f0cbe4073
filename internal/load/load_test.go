package load

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mirage/internal/app"
)

func TestDeterministicStream(t *testing.T) {
	spec := Spec{Seed: 7, Rate: 500, Duration: 2 * time.Second, Frontends: 3, Skew: SkewZipf}
	collect := func(f int) []Op {
		g := NewGen(spec, f)
		var ops []Op
		for {
			op, ok := g.Next()
			if !ok {
				return ops
			}
			ops = append(ops, op)
		}
	}
	a, b := collect(1), collect(1)
	if len(a) == 0 {
		t.Fatal("empty stream")
	}
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := collect(2)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("frontends 1 and 2 produced identical streams")
	}
}

func TestPoissonRate(t *testing.T) {
	spec := Spec{Seed: 1, Rate: 1000, Duration: 10 * time.Second, Frontends: 4}
	var n int
	for f := 0; f < spec.Frontends; f++ {
		g := NewGen(spec, f)
		for {
			if _, ok := g.Next(); !ok {
				break
			}
			n++
		}
	}
	want := spec.Rate * spec.Duration.Seconds()
	if float64(n) < 0.9*want || float64(n) > 1.1*want {
		t.Fatalf("generated %d arrivals, want about %.0f", n, want)
	}
}

func TestOpMix(t *testing.T) {
	spec := Spec{Seed: 3, Rate: 2000, Duration: 10 * time.Second,
		ReadFrac: 0.6, DeleteFrac: 0.1, CASFrac: 0.1}
	counts := map[OpKind]int{}
	g := NewGen(spec, 0)
	n := 0
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		counts[op.Kind]++
		n++
	}
	frac := func(k OpKind) float64 { return float64(counts[k]) / float64(n) }
	for k, want := range map[OpKind]float64{OpGet: 0.6, OpDelete: 0.1, OpCAS: 0.1, OpPut: 0.2} {
		if got := frac(k); got < want-0.05 || got > want+0.05 {
			t.Errorf("%v fraction %.3f, want about %.2f", k, got, want)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	spec := Spec{Seed: 5, Rate: 5000, Duration: 4 * time.Second, Keys: 1000, Skew: SkewZipf}
	counts := map[uint64]int{}
	g := NewGen(spec, 0)
	n := 0
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		if int(op.Key) >= spec.Keys {
			t.Fatalf("key %d outside keyspace %d", op.Key, spec.Keys)
		}
		counts[op.Key]++
		n++
	}
	// Under Zipf(1.2) the hottest key takes a large multiple of the
	// uniform share 1/Keys.
	var max int
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max) < 20*float64(n)/float64(spec.Keys) {
		t.Fatalf("hottest key got %d of %d ops — not skewed", max, n)
	}
}

func TestHotspotShifts(t *testing.T) {
	spec := Spec{Seed: 9, Rate: 2000, Duration: 4 * time.Second, Keys: 4096,
		Skew: SkewHotspot, HotFrac: 1.0, HotKeys: 64, HotShift: time.Second}
	g := NewGen(spec, 0)
	epochKeys := map[int64]map[uint64]bool{}
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		e := int64(op.T / spec.HotShift)
		if epochKeys[e] == nil {
			epochKeys[e] = map[uint64]bool{}
		}
		epochKeys[e][op.Key] = true
	}
	if len(epochKeys) < 3 {
		t.Fatalf("only %d epochs observed", len(epochKeys))
	}
	// Each epoch draws from a window of HotKeys keys; windows of
	// adjacent epochs must differ.
	for e, keys := range epochKeys {
		if len(keys) > spec.HotKeys {
			t.Fatalf("epoch %d touched %d distinct keys, window is %d", e, len(keys), spec.HotKeys)
		}
	}
	same := true
	for k := range epochKeys[0] {
		if !epochKeys[1][k] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("hot window did not move between epochs 0 and 1")
	}
}

func TestReportRung(t *testing.T) {
	spec := Spec{Rate: 100, Duration: time.Second, QueueCap: 8}
	rep := NewReport()
	for i := 0; i < 90; i++ {
		rep.Admit()
		rep.Done(time.Millisecond, i%2 == 0, nil)
	}
	rep.Shed()
	rep.ObserveQueue(5)
	rep.ObserveQueue(3)
	g := rep.Rung(spec)
	if g.Offered != 91 || g.Admitted != 90 || g.Shed != 1 || g.Completed != 90 {
		t.Fatalf("accounting wrong: %+v", g)
	}
	if g.QueueMax != 5 {
		t.Fatalf("QueueMax = %d, want 5", g.QueueMax)
	}
	if !g.LivenessOK {
		t.Fatal("liveness should hold: all admitted completed, queue bounded")
	}
	if g.Goodput != 90 {
		t.Fatalf("goodput = %v, want 90", g.Goodput)
	}
	if g.Latency.P50 <= 0 {
		t.Fatalf("latency summary empty: %+v", g.Latency)
	}
	if !g.Saturated(spec) {
		t.Fatal("a shed arrival must mark the rung saturated")
	}

	// An incomplete admitted request breaks liveness.
	rep2 := NewReport()
	rep2.Admit()
	g2 := rep2.Rung(spec)
	if g2.LivenessOK {
		t.Fatal("admitted-but-incomplete must break liveness")
	}
}

func TestKneeAndSLO(t *testing.T) {
	spec := Spec{Rate: 100, Duration: time.Second, QueueCap: 8}
	ok := Rung{Offered: 100, Admitted: 100, Completed: 100, Goodput: 100, LivenessOK: true}
	sat := Rung{Offered: 200, Admitted: 150, Shed: 50, Completed: 150, Goodput: 150, LivenessOK: true}
	rungs := []Rung{ok, ok, sat}
	if k := Knee(rungs, spec); k != 2 {
		t.Fatalf("knee = %d, want 2", k)
	}
	if k := Knee([]Rung{ok, ok}, spec); k != -1 {
		t.Fatalf("knee of healthy ladder = %d, want -1", k)
	}
	slow := ok
	slow.Latency.P99 = int64(80 * time.Millisecond)
	if i := FirstSLOViolation([]Rung{ok, slow, sat}, 50*time.Millisecond); i != 1 {
		t.Fatalf("first SLO violation = %d, want 1", i)
	}
	if i := FirstSLOViolation([]Rung{ok}, 50*time.Millisecond); i != -1 {
		t.Fatalf("SLO violation in healthy ladder = %d, want -1", i)
	}
}

// TestServeRule pins the lane loop on a fake clock that only sleep and
// do advance: every generated arrival is admitted or shed, the backlog
// never passes its bound, each op's latency is its completion minus its
// scheduled arrival, an instant service never queues past the op it is
// serving, and a service slower than the arrivals sheds.
func TestServeRule(t *testing.T) {
	for _, tc := range []struct {
		name string
		svc  time.Duration // per op; the lane's capacity is 1/svc
	}{
		{"instant", 0},
		{"slow", 5 * time.Millisecond}, // 200 req/s against 1000 offered
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{Seed: 23, Rate: 1000, Duration: time.Second, QueueCap: 8}
			generated := int64(0)
			for g := NewGen(spec, 0); ; generated++ {
				if _, ok := g.Next(); !ok {
					break
				}
			}
			var clock time.Duration
			var sum, max int64
			rep := NewReport()
			rep.Serve(spec, 0, func() time.Duration { return clock },
				func(d time.Duration) { clock += d },
				func(op Op) (bool, error) {
					clock += tc.svc
					lat := int64(clock - op.T)
					sum += lat
					if lat > max {
						max = lat
					}
					return true, nil
				})
			g := rep.Rung(spec)
			if g.Admitted+g.Shed != generated {
				t.Fatalf("admitted %d + shed %d != generated %d", g.Admitted, g.Shed, generated)
			}
			if g.Completed != g.Admitted {
				t.Fatalf("completed %d != admitted %d", g.Completed, g.Admitted)
			}
			if g.QueueMax > int64(spec.QueueCap) {
				t.Fatalf("queue high-water %d above cap %d", g.QueueMax, spec.QueueCap)
			}
			if rep.lat.Count() != g.Completed || rep.lat.Sum() != sum || rep.lat.Max() != max {
				t.Fatalf("latencies: count %d sum %d max %d, want %d, %d, %d",
					rep.lat.Count(), rep.lat.Sum(), rep.lat.Max(), g.Completed, sum, max)
			}
			if tc.svc == 0 {
				if g.Shed != 0 || g.QueueMax != 1 || sum != 0 {
					t.Fatalf("instant service: shed %d, qmax %d, latency sum %d; want 0, 1, 0", g.Shed, g.QueueMax, sum)
				}
			} else if g.Shed == 0 || g.QueueMax != int64(spec.QueueCap) {
				t.Fatalf("5x overload: shed %d, qmax %d; want shedding at a full backlog of %d", g.Shed, g.QueueMax, spec.QueueCap)
			}
		})
	}
}

func TestRunLiveBelowSaturation(t *testing.T) {
	spec := Spec{Seed: 11, Rate: 2000, Duration: 300 * time.Millisecond,
		Frontends: 16, QueueCap: 64}
	g := RunLive(spec, func(f int, op Op) (bool, error) {
		time.Sleep(50 * time.Microsecond)
		return true, nil
	})
	if g.Offered == 0 {
		t.Fatal("no arrivals generated")
	}
	if !g.LivenessOK {
		t.Fatalf("liveness broken below saturation: %+v", g)
	}
	if g.Shed != 0 {
		t.Fatalf("shed %d below saturation", g.Shed)
	}
	if g.Completed != g.Admitted {
		t.Fatalf("completed %d != admitted %d", g.Completed, g.Admitted)
	}
	// The backlog's depth counts the op about to be served, on the wall
	// clock as on the virtual one.
	if g.QueueMax < 1 {
		t.Fatalf("queue high-water %d, want at least 1", g.QueueMax)
	}
}

func TestRunLiveSheds(t *testing.T) {
	// One lane at 20ms per op can absorb 50 req/s; offer 2000.
	spec := Spec{Seed: 13, Rate: 2000, Duration: 200 * time.Millisecond,
		Frontends: 1, QueueCap: 4}
	g := RunLive(spec, func(f int, op Op) (bool, error) {
		time.Sleep(20 * time.Millisecond)
		return true, nil
	})
	if g.Shed == 0 {
		t.Fatalf("expected shed load at 40x overload: %+v", g)
	}
	if !g.Saturated(spec) {
		t.Fatal("overloaded rung must report saturated")
	}
	// Bounded queues: even overloaded, everything admitted completes.
	if g.Completed != g.Admitted {
		t.Fatalf("completed %d != admitted %d", g.Completed, g.Admitted)
	}
	if g.QueueMax > int64(spec.QueueCap) {
		t.Fatalf("queue high-water %d above cap %d", g.QueueMax, spec.QueueCap)
	}
}

// memSeg is an in-memory app.Segment for exercising Execute without a
// cluster. beforeLock, when set, runs once at the next TestAndSet,
// before it takes the byte: a test's way in between two store calls.
type memSeg struct {
	mu         sync.Mutex
	b          []byte
	beforeLock func()
}

func (m *memSeg) ReadAt(b []byte, off int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	copy(b, m.b[off:])
	return nil
}

func (m *memSeg) WriteAt(b []byte, off int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	copy(m.b[off:], b)
	return nil
}

func (m *memSeg) TestAndSet(off int) (byte, error) {
	if f := m.beforeLock; f != nil {
		m.beforeLock = nil
		f()
	}
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

func newTestStore(t *testing.T, cfg app.Config) *app.Store {
	t.Helper()
	cfg = cfg.WithDefaults()
	segs := make([]app.Segment, cfg.Shards)
	for i := range segs {
		seg := &memSeg{b: make([]byte, cfg.ShardBytes())}
		if err := app.Format(seg, cfg, i); err != nil {
			t.Fatal(err)
		}
		segs[i] = seg
	}
	st, err := app.New(cfg, segs, app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestExecuteAgainstStore(t *testing.T) {
	cfg := app.Config{Shards: 4, SlotsPerShard: 256}
	st := newTestStore(t, cfg)
	spec := Spec{Seed: 17, Rate: 3000, Duration: 2 * time.Second, Keys: 200, ValBytes: 24}
	g := NewGen(spec, 0)
	n, storeOps := 0, 0
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		if _, err := Execute(st, spec, op); err != nil {
			t.Fatalf("op %d (%v key %d): %v", n, op.Kind, op.Key, err)
		}
		n++
		if op.Kind == OpCAS {
			storeOps += 2 // Execute issues a Get then the CAS
		} else {
			storeOps++
		}
	}
	tot := st.Stats().Total()
	if tot.Ops() != int64(storeOps) {
		t.Fatalf("store saw %d ops, expected %d from %d load ops", tot.Ops(), storeOps, n)
	}
	if tot.Puts == 0 || tot.Gets == 0 || tot.CASes == 0 {
		t.Fatalf("mix not exercised: %+v", tot)
	}
}

// TestExecuteCASOfDeletedKeyIsAMiss deletes the key between the Get
// and the swap of an OpCAS (a Get takes no lock, so the first lock the
// op takes is the swap's): the CAS lost a race with a Delete, which is
// a miss, as for a Get or a Delete of the key, and not an error.
func TestExecuteCASOfDeletedKeyIsAMiss(t *testing.T) {
	cfg := app.Config{Shards: 1, SlotsPerShard: 16}.WithDefaults()
	seg := &memSeg{b: make([]byte, cfg.ShardBytes())}
	if err := app.Format(seg, cfg, 0); err != nil {
		t.Fatal(err)
	}
	st, err := app.New(cfg, []app.Segment{seg}, app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{ValBytes: 8}
	op := Op{Kind: OpCAS, Key: 3}
	key := KeyBytes(op.Key)
	if err := st.Put(key, ValBytes(op.Key, spec.ValBytes)); err != nil {
		t.Fatal(err)
	}
	seg.beforeLock = func() {
		if err := st.Delete(key); err != nil {
			t.Errorf("delete between the get and the swap: %v", err)
		}
	}
	if hit, err := Execute(st, spec, op); hit || err != nil {
		t.Fatalf("CAS of a key deleted after its get: hit %v, err %v; want a miss", hit, err)
	}
	if seg.beforeLock != nil {
		t.Fatal("the CAS took no lock after its get")
	}
	if _, err := st.Get(key); !errors.Is(err, app.ErrNoKey) {
		t.Fatalf("get after the lost CAS: %v, want ErrNoKey", err)
	}
}

func TestRunLiveOverStore(t *testing.T) {
	cfg := app.Config{Shards: 8, SlotsPerShard: 256}
	st := newTestStore(t, cfg)
	spec := Spec{Seed: 19, Rate: 4000, Duration: 200 * time.Millisecond,
		Frontends: 8, QueueCap: 128, Keys: 500, ValBytes: 24}
	g := RunLive(spec, func(f int, op Op) (bool, error) {
		return Execute(st, spec, op)
	})
	if g.Errors != 0 {
		t.Fatalf("store errors under load: %+v", g)
	}
	if !g.LivenessOK {
		t.Fatalf("liveness broken: %+v", g)
	}
	// CAS load ops issue two store calls, so store ops ≥ completions.
	if got := st.Stats().Total().Ops(); got < g.Completed {
		t.Fatalf("store ops %d < completed %d", got, g.Completed)
	}
}
