package main

import (
	"bytes"
	"fmt"
	"time"

	"mirage"
	"mirage/internal/app"
	"mirage/internal/load"
)

// fakeSegment is an app.Segment over a byte slice: the store's probe,
// parse and lock logic runs with no DSM under it, and calls counts how
// many segment calls that logic makes — the multiplier from one DSM
// access to one store op. staleOff, when positive, makes reads of that
// offset return the bytes as they were at the first read (one stale
// slot), which the value check must catch.
type fakeSegment struct {
	mem      []byte
	calls    int
	staleOff int
	stale    []byte
}

func (f *fakeSegment) ReadAt(b []byte, off int) error {
	f.calls++
	if off == f.staleOff && f.staleOff > 0 {
		if f.stale == nil {
			f.stale = append([]byte(nil), f.mem[off:off+len(b)]...)
		}
		copy(b, f.stale)
		return nil
	}
	copy(b, f.mem[off:off+len(b)])
	return nil
}

func (f *fakeSegment) WriteAt(b []byte, off int) error {
	f.calls++
	copy(f.mem[off:], b)
	return nil
}

func (f *fakeSegment) TestAndSet(off int) (byte, error) {
	f.calls++
	old := f.mem[off]
	f.mem[off] = 1
	return old, nil
}

func (f *fakeSegment) Clear(off int) error {
	f.calls++
	f.mem[off] = 0
	return nil
}

// storeCfg is the store-tcp geometry; the app probes use the same.
var storeCfg = mirage.StoreConfig{Shards: 8, SlotsPerShard: 256, SlotSize: 128}

// newFakeStore builds a formatted store over fake segments with the
// even keys preloaded, as store-tcp's set-up does.
func newFakeStore() (*app.Store, []*fakeSegment, error) {
	cfg := storeCfg.WithDefaults()
	fakes := make([]*fakeSegment, cfg.Shards)
	segs := make([]app.Segment, cfg.Shards)
	for i := range fakes {
		fakes[i] = &fakeSegment{mem: make([]byte, cfg.ShardBytes())}
		segs[i] = fakes[i]
		if err := app.Format(fakes[i], cfg, i); err != nil {
			return nil, nil, err
		}
	}
	st, err := app.New(cfg, segs, app.Options{Sleep: func(time.Duration) {}})
	if err != nil {
		return nil, nil, err
	}
	for k := uint64(0); k < storeKeys; k += 2 {
		if err := st.Put(load.KeyBytes(k), load.ValBytes(k, storeValBytes)); err != nil {
			return nil, nil, err
		}
	}
	return st, fakes, nil
}

func fakeCalls(fakes []*fakeSegment) int {
	n := 0
	for _, f := range fakes {
		n += f.calls
	}
	return n
}

// appProbes price the store logic alone and count its segment calls.
func appProbes(per time.Duration, out map[string]float64) error {
	st, fakes, err := newFakeStore()
	if err != nil {
		return fmt.Errorf("app probe: %w", err)
	}
	const present = storeKeys / 2
	keys := make([][]byte, present)
	vals := make([][]byte, present)
	for i := range keys {
		keys[i] = load.KeyBytes(uint64(2 * i))
		vals[i] = load.ValBytes(uint64(2*i), storeValBytes)
	}
	var opErr error
	note := func(err error) {
		if err != nil && opErr == nil {
			opErr = err
		}
	}
	get := func(n int) {
		for i := 0; i < n; i++ {
			v, err := st.Get(keys[i%present])
			if err == nil && !bytes.Equal(v, vals[i%present]) {
				err = fmt.Errorf("get returned %x", v)
			}
			note(err)
		}
	}
	put := func(n int) {
		for i := 0; i < n; i++ {
			note(st.Put(keys[i%present], vals[i%present]))
		}
	}
	// Exact segment calls per op, averaged over every preloaded key.
	before := fakeCalls(fakes)
	get(present)
	out["app.seg_calls_per_get"] = float64(fakeCalls(fakes)-before) / present
	before = fakeCalls(fakes)
	put(present)
	out["app.seg_calls_per_put"] = float64(fakeCalls(fakes)-before) / present

	out["app.get_ns"] = nsPerOp(per, get)
	out["app.put_ns"] = nsPerOp(per, put)
	out["app.cas_ns"] = nsPerOp(per, func(n int) {
		for i := 0; i < n; i++ {
			ok, err := st.CAS(keys[i%present], vals[i%present], vals[i%present])
			if err == nil && !ok {
				err = fmt.Errorf("cas of an unchanged value lost")
			}
			note(err)
		}
	})
	if opErr != nil {
		return fmt.Errorf("app probe: %w", opErr)
	}
	return nil
}
