package mirage

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// An unrecorded read writes nothing to the page's word: it copies the
// bytes and keeps them only if the word's version did not move
// (DESIGN.md §17). The stress below reads without op records, so it
// takes that path, against a writer at site 0 and the invalidations
// that writer sends to site 1.

// Layout: page 0 holds readRecords 8-byte records (v, ^v), all with the
// same v, written by one WriteAt; page 1 holds the counter, set to v
// once the records carry it.
const (
	readRecords    = 64
	readCounterOff = 512
)

// readStress is one run: the writer's rounds, the readers' broken
// promises, and how many reads they made.
type readStress struct {
	faults []error
	reads  atomic.Int64
}

// readRecordsAt checks one ReadAt of the records: every record is
// whole, and all carry one v.
func readRecordsAt(seg *Segment, buf []byte) (uint32, error) {
	if err := seg.ReadAt(buf, 0); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(buf)
	for r := 0; r < readRecords; r++ {
		a, b := binary.LittleEndian.Uint32(buf[8*r:]), binary.LittleEndian.Uint32(buf[8*r+4:])
		if a != v || b != ^v {
			return 0, fmt.Errorf("torn read: record %d is (%d, %#x) beside record 0's v %d", r, a, b, v)
		}
	}
	return v, nil
}

// seen is what one reader has read last: the counter and the records'
// v. The records run ahead of the counter, never behind it.
type seen struct{ counter, v uint32 }

// readRound is one reader's round: the counter, then the records by
// ReadAt and one record's first word by Uint32. No value may be older
// than what this reader saw last, and the records no older than the
// counter read before them.
func readRound(seg *Segment, buf []byte, last *seen) error {
	c, err := seg.Uint32(readCounterOff)
	if err != nil {
		return err
	}
	if c < last.counter {
		return fmt.Errorf("stale counter %d after %d", c, last.counter)
	}
	last.counter = c
	v, err := readRecordsAt(seg, buf)
	if err != nil {
		return err
	}
	if v < c || v < last.v {
		return fmt.Errorf("stale records: v %d after counter %d and v %d", v, c, last.v)
	}
	last.v = v
	w, err := seg.Uint32(8 * (int(v) % readRecords))
	if err != nil {
		return err
	}
	if w < v {
		return fmt.Errorf("stale record word %d after v %d", w, v)
	}
	last.v = w
	return nil
}

// runReadStress runs writes rounds of the writer beside three readers
// at each site, two sharing an attach and one with its own, and returns
// the broken promises.
func runReadStress(t *testing.T, writes int) *readStress {
	t.Helper()
	c := newTestCluster(t, 2, Options{})
	ps := c.opts.PageSize
	if 8*readRecords > ps || readCounterOff != ps {
		t.Fatalf("layout needs 512-byte pages, have %d", ps)
	}
	id, err := c.Site(0).Shmget(IPCPrivate, 2*ps, Create, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	attach := func(s int) *Segment {
		seg, err := c.Site(s).Attach(id, false)
		if err != nil {
			t.Fatal(err)
		}
		return seg
	}
	writer := attach(0)
	buf := make([]byte, 8*readRecords)
	put := func(v uint32) error {
		for r := 0; r < readRecords; r++ {
			binary.LittleEndian.PutUint32(buf[8*r:], v)
			binary.LittleEndian.PutUint32(buf[8*r+4:], ^v)
		}
		return writer.WriteAt(buf, 0)
	}
	if err := put(0); err != nil {
		t.Fatal(err)
	}
	var out readStress
	var mu sync.Mutex
	report := func(who string, err error) {
		mu.Lock()
		out.faults = append(out.faults, fmt.Errorf("%s: %w", who, err))
		mu.Unlock()
	}
	var stop atomic.Bool
	var wg, started sync.WaitGroup
	for s := 0; s < 2; s++ {
		shared := attach(s)
		for r, seg := range []*Segment{shared, shared, attach(s)} {
			who := fmt.Sprintf("site %d reader %d", s, r)
			wg.Add(1)
			started.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 8*readRecords)
				var last seen
				for first := true; first || !stop.Load(); first = false {
					err := readRound(seg, buf, &last)
					if first {
						started.Done()
					}
					if err != nil {
						report(who, err)
						return
					}
					out.reads.Add(1)
				}
			}()
		}
	}
	started.Wait() // every reader is under way before the first write
	for v := uint32(1); v <= uint32(writes) && !stop.Load(); v++ {
		if err := put(v); err != nil {
			report("writer", err)
			break
		}
		if err := writer.SetUint32(readCounterOff, v); err != nil {
			report("writer", err)
			break
		}
		mu.Lock()
		stop.Store(len(out.faults) > 0)
		mu.Unlock()
	}
	stop.Store(true)
	wg.Wait()
	return &out
}

func TestOptimisticReadNeverTornOrStale(t *testing.T) {
	out := runReadStress(t, 3000)
	for _, f := range out.faults {
		t.Error(f)
	}
	t.Logf("%d read rounds beside 3000 writes", out.reads.Load())
}
