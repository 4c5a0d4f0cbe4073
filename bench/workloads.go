package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"mirage"
	"mirage/internal/load"
)

// opKind is the latency class an op is recorded under. Every workload
// has reads and writes; the third class is the workload's own extra
// (reader→writer upgrade on fault-*, CAS on store-tcp), and deletes
// are counted but have no latency metric.
type opKind uint8

const (
	kRead opKind = iota
	kWrite
	kThird
	kOther
	nKinds
)

var kindNames = [nKinds]string{"read", "write", "third", "other"}

// batch is how many same-kind sub-microsecond ops share one pair of
// clock readings, so time.Now does not become the measurement.
const batch = 64

// span is one timed public call (or one batch of them) of the traced
// run, in nanoseconds since the run's base time.
type span struct {
	start, end int64
	kind       opKind
	site       int8
	n          int32 // ops covered (batch for batched kinds)
}

// driver is one closed-loop client goroutine's private state: its
// exact latency samples and its op counts per fine time slice of the
// phase. Nothing in it is shared, so recording costs no
// synchronisation.
type driver struct {
	id     int
	lat    [nKinds][]samples // per latSlice; the last slot takes the overflow
	ops    []int64           // successful public-API ops per fineSlice; likewise
	cycles int               // cycles completed
	failed int64             // ops that returned an error or a wrong value
	bad    error             // first correctness failure
	start  time.Time         // phase start
	last   time.Time
	base   time.Time
	spans  []span // recorded only when tracing
	trace  bool
}

func newDriver(id, slices int, trace bool, base time.Time) *driver {
	d := &driver{id: id, trace: trace, base: base, ops: make([]int64, slices+1)}
	for k := range d.lat {
		d.lat[k] = make([]samples, slices*int(fineSlice)/int(latSlice)+1)
	}
	if trace {
		d.spans = make([]span, 0, 1<<16)
	}
	return d
}

// lap closes the timing of n ops of one kind issued by site since the
// previous lap: one clock reading per lap, so consecutive ops share
// their boundary timestamps. Sample and ops count toward the slices
// the lap ended in.
func (d *driver) lap(k opKind, site, n int) {
	now := time.Now()
	at := now.Sub(d.start)
	d.lat[k][min(int(at/latSlice), len(d.lat[k])-1)].add(int64(now.Sub(d.last)) / int64(n))
	d.ops[min(int(at/fineSlice), len(d.ops)-1)] += int64(n)
	if d.trace {
		d.spans = append(d.spans, span{
			start: int64(d.last.Sub(d.base)), end: int64(now.Sub(d.base)),
			kind: k, site: int8(site), n: int32(n),
		})
	}
	d.last = now
}

// fail records an op that returned an error or a wrong value; a failed
// op contributes no latency sample, so it misses every latency bound.
func (d *driver) fail(err error) {
	d.failed++
	if d.bad == nil {
		d.bad = err
	}
	d.last = time.Now()
}

// instance is one set-up workload: a live cluster plus the per-driver
// state the cycle function needs.
type instance interface {
	// drivers is the number of closed-loop client goroutines.
	drivers() int
	// cycle issues one repetition of the workload's op pattern on
	// driver d, timing and checking every op.
	cycle(d *driver)
	// verify runs the end-of-run correctness check.
	verify() error
	// cluster exposes the cluster for stats, trace checks and Close.
	cluster() *mirage.Cluster
}

// workloadDef names a workload and knows how to set it up. setup
// builds the cluster and runs the first cycle on every driver, so
// lazy work (first-touch faults, TCP dials) is part of set-up time.
type workloadDef struct {
	name  string
	why   string
	setup func(seed int64, o *mirage.Obs, check bool) (instance, error)
	// single reports one access in flight at a time, each at most one
	// fault, which makes the attribution of protocol events to op spans
	// exact. (A store-tcp op is several accesses.)
	single bool
	// traceCycles caps the cycles of a traced pass (and so the events it
	// keeps); zero leaves the pass bounded by time alone, which suits
	// the batched workloads whose ops emit no events.
	traceCycles int
}

var workloads = []workloadDef{
	{name: "hit",
		why:   "resident reads and writes on one site: only the access check and the actor hop run, no protocol message",
		setup: setupHit},
	{name: "fault-inproc", single: true, traceCycles: 20000,
		why:   "upgrade, write fault and read fault between two in-process sites: engine and actor hops, no codec or socket",
		setup: func(s int64, o *mirage.Obs, c bool) (instance, error) { return setupFault(s, o, c, false) }},
	{name: "fault-tcp", single: true, traceCycles: 20000,
		why:   "the same three faults over TCP with 4096-byte pages: adds codec, staging, flush and real page shipping",
		setup: func(s int64, o *mirage.Obs, c bool) (instance, error) { return setupFault(s, o, c, true) }},
	{name: "fanout", single: true, traceCycles: 20000,
		why:   "one writer invalidating a five-member copyset, then five re-reads: the library invalidation path",
		setup: setupFanout},
	{name: "contend-delta",
		why:   "two sites adding to and reading one word inside a 2 ms window: hits racing invalidations, denials and retries",
		setup: setupContend},
	{name: "store-tcp", traceCycles: 200000,
		why:   "Zipf key-value mix through two frontends in turn over three TCP sites: every layer, lock-free Get beside locking Put and CAS",
		setup: setupStore},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func clusterOpts(o *mirage.Obs, check bool) mirage.Options {
	return mirage.Options{Obs: o, Check: check}
}

// newSegment creates a segment at site 0 and attaches it once per
// entry of sites (a site may appear twice: two handles on one site).
func newSegment(c *mirage.Cluster, size int, sites []int) ([]*mirage.Segment, error) {
	id, err := c.Site(0).Shmget(mirage.IPCPrivate, size, mirage.Create, 0o600)
	if err != nil {
		return nil, err
	}
	hs := make([]*mirage.Segment, len(sites))
	for i, s := range sites {
		if hs[i], err = c.Site(s).Attach(id, false); err != nil {
			return nil, err
		}
	}
	return hs, nil
}

// ---- hit ----

const (
	hitPages    = 64
	hitPageSize = 512
	hitSeqLen   = 4096
)

// hitDriver is one goroutine's private state, padded so that the two
// goroutines' cursors never share a cache line: false sharing in the
// harness would be charged to the program under test.
type hitDriver struct {
	_    [64]byte
	seg  *mirage.Segment
	seq  []int // the seeded page order
	pos  int
	next uint32           // last value written
	last [hitPages]uint32 // last value written per page
	_    [64]byte
}

type hitInst struct {
	c  *mirage.Cluster
	dr []*hitDriver
}

func setupHit(seed int64, o *mirage.Obs, check bool) (instance, error) {
	return setupHitN(seed, o, check, 2)
}

// setupHitN is hit with n goroutines; the workload uses two, the
// scaling probe compares one against two.
func setupHitN(seed int64, o *mirage.Obs, check bool, n int) (instance, error) {
	opt := clusterOpts(o, check)
	opt.PageSize = hitPageSize
	c, err := mirage.NewCluster(1, opt)
	if err != nil {
		return nil, err
	}
	hs, err := newSegment(c, hitPages*hitPageSize, make([]int, n))
	if err != nil {
		c.Close()
		return nil, err
	}
	h := &hitInst{c: c, dr: make([]*hitDriver, n)}
	for g := range h.dr {
		r := rand.New(rand.NewSource(seed*2 + int64(g)))
		hd := &hitDriver{seg: hs[g], seq: make([]int, hitSeqLen)}
		for i := range hd.seq {
			hd.seq[i] = r.Intn(hitPages)
		}
		h.dr[g] = hd
	}
	return h, nil
}

func (h *hitInst) drivers() int             { return len(h.dr) }
func (h *hitInst) cluster() *mirage.Cluster { return h.c }

// hitOff is driver g's private word in page p.
func hitOff(p, g int) int { return p*hitPageSize + 4*g }

func (hd *hitDriver) nextPage() int {
	p := hd.seq[hd.pos]
	hd.pos++
	if hd.pos == hitSeqLen {
		hd.pos = 0
	}
	return p
}

func (h *hitInst) cycle(d *driver) {
	g := d.id
	hd := h.dr[g]
	for b := 0; b < 4; b++ {
		ok := true
		for i := 0; i < batch; i++ {
			p := hd.nextPage()
			v, err := hd.seg.Uint32(hitOff(p, g))
			if err != nil || v != hd.last[p] {
				d.fail(fmt.Errorf("hit: read page %d = %d (err %v), want own last write %d", p, v, err, hd.last[p]))
				ok = false
				break
			}
		}
		if ok {
			d.lap(kRead, 0, batch)
		}
	}
	ok := true
	for i := 0; i < batch; i++ {
		p := hd.nextPage()
		hd.next++
		if err := hd.seg.SetUint32(hitOff(p, g), hd.next); err != nil {
			d.fail(fmt.Errorf("hit: write page %d: %v", p, err))
			ok = false
			break
		}
		hd.last[p] = hd.next
	}
	if ok {
		d.lap(kWrite, 0, batch)
	}
}

func (h *hitInst) verify() error {
	for g, hd := range h.dr {
		for p := 0; p < hitPages; p++ {
			v, err := hd.seg.Uint32(hitOff(p, g))
			if err != nil || v != hd.last[p] {
				return fmt.Errorf("hit: final page %d driver %d = %d (err %v), want %d", p, g, v, err, hd.last[p])
			}
		}
	}
	return nil
}

// ---- fault-inproc / fault-tcp ----

type faultInst struct {
	c    *mirage.Cluster
	a, b *mirage.Segment
	n    uint32 // cycle counter; values written derive from it
}

func setupFault(seed int64, o *mirage.Obs, check, tcp bool) (instance, error) {
	opt := clusterOpts(o, check)
	opt.PageSize = 512
	opt.TCP = tcp
	if tcp {
		opt.PageSize = 4096
	}
	c, err := mirage.NewCluster(2, opt)
	if err != nil {
		return nil, err
	}
	hs, err := newSegment(c, opt.PageSize, []int{0, 1})
	if err != nil {
		c.Close()
		return nil, err
	}
	// The seed offsets the values written, so two seeds exercise the
	// same protocol steps over different page contents.
	return &faultInst{c: c, a: hs[0], b: hs[1], n: uint32(seed) << 20}, nil
}

func (f *faultInst) drivers() int             { return 1 }
func (f *faultInst) cluster() *mirage.Cluster { return f.c }

// Word 0 is written by B and read back by A; word 1 is A's.
func (f *faultInst) cycle(d *driver) {
	f.n++
	// Upgrade: both sites hold read copies, A becomes the writer with
	// short messages only.
	if err := f.a.SetUint32(4, f.n); err != nil {
		d.fail(fmt.Errorf("fault: A upgrade write: %v", err))
	} else {
		d.lap(kThird, 0, 1)
	}
	// Write fault: the page moves A→B.
	if err := f.b.SetUint32(0, ^f.n); err != nil {
		d.fail(fmt.Errorf("fault: B write: %v", err))
	} else {
		d.lap(kWrite, 1, 1)
	}
	// Read fault: B downgrades and the page is copied to A.
	if v, err := f.a.Uint32(0); err != nil || v != ^f.n {
		d.fail(fmt.Errorf("fault: A read = %#x (err %v), want B's write %#x", v, err, ^f.n))
	} else {
		d.lap(kRead, 0, 1)
	}
}

func (f *faultInst) verify() error {
	for _, h := range []*mirage.Segment{f.b, f.a} {
		w0, err0 := h.Uint32(0)
		w1, err1 := h.Uint32(4)
		if err0 != nil || err1 != nil || w0 != ^f.n || w1 != f.n {
			return fmt.Errorf("fault: final words %#x %#x (errs %v %v), want %#x %#x", w0, w1, err0, err1, ^f.n, f.n)
		}
	}
	return nil
}

// ---- fanout ----

const fanoutSites = 6

type fanoutInst struct {
	c    *mirage.Cluster
	segs []*mirage.Segment
	n    uint32
}

func setupFanout(seed int64, o *mirage.Obs, check bool) (instance, error) {
	opt := clusterOpts(o, check)
	opt.PageSize = 512
	c, err := mirage.NewCluster(fanoutSites, opt)
	if err != nil {
		return nil, err
	}
	sites := make([]int, fanoutSites)
	for i := range sites {
		sites[i] = i
	}
	hs, err := newSegment(c, 512, sites)
	if err != nil {
		c.Close()
		return nil, err
	}
	return &fanoutInst{c: c, segs: hs, n: uint32(seed) << 20}, nil
}

func (f *fanoutInst) drivers() int             { return 1 }
func (f *fanoutInst) cluster() *mirage.Cluster { return f.c }

func (f *fanoutInst) cycle(d *driver) {
	f.n++
	if err := f.segs[0].SetUint32(0, f.n); err != nil {
		d.fail(fmt.Errorf("fanout: write: %v", err))
	} else {
		d.lap(kWrite, 0, 1)
	}
	for s := 1; s < fanoutSites; s++ {
		if v, err := f.segs[s].Uint32(0); err != nil || v != f.n {
			d.fail(fmt.Errorf("fanout: site %d read = %#x (err %v), want %#x", s, v, err, f.n))
		} else {
			d.lap(kRead, s, 1)
		}
	}
}

func (f *fanoutInst) verify() error {
	for s, h := range f.segs {
		if v, err := h.Uint32(0); err != nil || v != f.n {
			return fmt.Errorf("fanout: final read at site %d = %#x (err %v), want %#x", s, v, err, f.n)
		}
	}
	return nil
}

// ---- contend-delta ----

const contendDelta = 2 * time.Millisecond

// contendDriver is one site's goroutine state, padded like hitDriver.
type contendDriver struct {
	_    [64]byte
	seg  *mirage.Segment
	adds uint32 // AddUint32 calls issued since set-up, never reset
	seen uint32 // last counter value observed
	_    [64]byte
}

type contendInst struct {
	c  *mirage.Cluster
	dr [2]*contendDriver
}

func setupContend(seed int64, o *mirage.Obs, check bool) (instance, error) {
	opt := clusterOpts(o, check)
	opt.PageSize = 512
	opt.Delta = contendDelta
	c, err := mirage.NewCluster(2, opt)
	if err != nil {
		return nil, err
	}
	hs, err := newSegment(c, 512, []int{0, 1})
	if err != nil {
		c.Close()
		return nil, err
	}
	t := &contendInst{c: c}
	for g := range t.dr {
		t.dr[g] = &contendDriver{seg: hs[g]}
	}
	return t, nil
}

func (t *contendInst) drivers() int             { return 2 }
func (t *contendInst) cluster() *mirage.Cluster { return t.c }

// Each driver adds to the shared word in four batches and reads it in
// one. The counter only grows, so every value a driver sees must be at
// least the last one it saw, and strictly larger after its own add.
func (t *contendInst) cycle(d *driver) {
	cd := t.dr[d.id]
	for b := 0; b < 4; b++ {
		ok := true
		for i := 0; i < batch; i++ {
			v, err := cd.seg.AddUint32(0, 1)
			cd.adds++
			if err != nil || v <= cd.seen {
				d.fail(fmt.Errorf("contend: add = %d (err %v) after seeing %d", v, err, cd.seen))
				ok = false
				break
			}
			cd.seen = v
		}
		if ok {
			d.lap(kWrite, d.id, batch)
		}
	}
	ok := true
	for i := 0; i < batch; i++ {
		v, err := cd.seg.Uint32(0)
		if err != nil || v < cd.seen {
			d.fail(fmt.Errorf("contend: read = %d (err %v) after seeing %d", v, err, cd.seen))
			ok = false
			break
		}
		cd.seen = v
	}
	if ok {
		d.lap(kRead, d.id, batch)
	}
}

// verify is the no-lost-update check: the word equals the number of
// adds issued since set-up.
func (t *contendInst) verify() error {
	want := t.dr[0].adds + t.dr[1].adds
	for g, cd := range t.dr {
		if v, err := cd.seg.Uint32(0); err != nil || v != want {
			return fmt.Errorf("contend: counter at site %d = %d (err %v), want %d adds", g, v, err, want)
		}
	}
	return nil
}

// ---- store-tcp ----

const (
	storeKeys     = 1024
	storeValBytes = 32
)

type storeInst struct {
	c      *mirage.Cluster
	stores []*mirage.Store
	gens   [2]*load.Gen
	keys   [][]byte
	vals   [][]byte
}

func setupStore(seed int64, o *mirage.Obs, check bool) (instance, error) {
	opt := clusterOpts(o, check)
	opt.PageSize = 512
	opt.TCP = true
	c, err := mirage.NewCluster(3, opt)
	if err != nil {
		return nil, err
	}
	stores, err := c.OpenStores(storeCfg)
	if err != nil {
		c.Close()
		return nil, err
	}
	s := &storeInst{c: c, stores: stores}
	s.keys = make([][]byte, storeKeys)
	s.vals = make([][]byte, storeKeys)
	for k := range s.keys {
		s.keys[k] = load.KeyBytes(uint64(k))
		s.vals[k] = load.ValBytes(uint64(k), storeValBytes)
	}
	// Each even key is preloaded through the frontend of its shard's
	// library site, where the shard's pages start out resident: set-up
	// then costs CPU, not a few thousand socket round trips.
	cfg := stores[0].Config()
	for k := 0; k < storeKeys; k += 2 {
		owner := cfg.LibraryFor(cfg.ShardOf(s.keys[k]))
		if err := stores[owner].Put(s.keys[k], s.vals[k]); err != nil {
			c.Close()
			return nil, fmt.Errorf("store: preload key %d: %w", k, err)
		}
	}
	// The generator is used for its seeded key and op-kind stream only;
	// the closed loop ignores its arrival times, so the rate just has
	// to be positive and the window unbounded.
	spec := load.Spec{Seed: seed, Rate: 1, Duration: 1 << 62, Frontends: 2,
		Keys: storeKeys, Skew: load.SkewZipf, ZipfS: 1.2,
		ReadFrac: 0.75, DeleteFrac: 0.02, CASFrac: 0.05, ValBytes: storeValBytes}
	for f := range s.gens {
		s.gens[f] = load.NewGen(spec, f)
	}
	return s, nil
}

// One client, not one per frontend: two concurrent writers find a
// shard's header page at home half the time, which puts the median Put
// on the edge between a 4 µs resident op and a 20 µs faulting one, where
// it reads 4-19 µs from run to run. With the frontends taking turns,
// nine Puts in ten fault and the median sits inside that mode.
func (s *storeInst) drivers() int             { return 1 }
func (s *storeInst) cluster() *mirage.Cluster { return s.c }

// cycle issues the next op of one frontend's stream through that
// frontend, the two frontends taking turns.
func (s *storeInst) cycle(d *driver) {
	f := d.cycles & 1
	op, _ := s.gens[f].Next()
	kind, err := execStoreOp(s.stores[1+f], op.Kind, s.keys[op.Key], s.vals[op.Key])
	if err != nil {
		d.fail(fmt.Errorf("store: key %d: %w", op.Key, err))
		return
	}
	d.lap(kind, 1+f, 1)
}

// execStoreOp is the benchmark's own executor (load.Execute reports a
// CAS that lost a race with a Delete as an error, which would poison
// the failure count): an absent key on Get, Delete or CAS is a valid
// miss — another client may delete between the CAS's read and its
// swap — while a busy or full shard, an unreachable peer or any other
// error is a failure, and so is a Get that returns bytes other than
// the key's value. It returns the latency class of the op.
func execStoreOp(st *mirage.Store, op load.OpKind, key, val []byte) (opKind, error) {
	kind := kOther
	var err error
	switch op {
	case load.OpGet:
		kind = kRead
		var got []byte
		got, err = st.Get(key)
		if err == nil && !bytes.Equal(got, val) {
			return kind, fmt.Errorf("get returned %x, want %x", got, val)
		}
	case load.OpPut:
		kind = kWrite
		err = st.Put(key, val)
	case load.OpDelete:
		err = st.Delete(key)
	default:
		kind = kThird
		var cur []byte
		if cur, err = st.Get(key); err == nil {
			_, err = st.CAS(key, cur, val)
		} else if errors.Is(err, mirage.ErrKeyNotFound) {
			_, err = st.CAS(key, nil, val)
		}
	}
	if errors.Is(err, mirage.ErrKeyNotFound) {
		err = nil
	}
	return kind, err
}

// verify reads every key through both frontends: they must agree on
// presence, and a present key must carry its own value.
func (s *storeInst) verify() error {
	for k := range s.keys {
		v1, err1 := s.stores[1].Get(s.keys[k])
		v2, err2 := s.stores[2].Get(s.keys[k])
		if (err1 == nil) != (err2 == nil) {
			return fmt.Errorf("store: key %d presence differs between frontends (%v / %v)", k, err1, err2)
		}
		for _, err := range []error{err1, err2} {
			if err != nil && !errors.Is(err, mirage.ErrKeyNotFound) {
				return fmt.Errorf("store: final get key %d: %w", k, err)
			}
		}
		if err1 == nil && (!bytes.Equal(v1, s.vals[k]) || !bytes.Equal(v2, s.vals[k])) {
			return fmt.Errorf("store: key %d final value %x / %x, want %x", k, v1, v2, s.vals[k])
		}
	}
	return nil
}
