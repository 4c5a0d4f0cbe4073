package app

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"mirage/internal/obs"
)

// Options binds a Store frontend to its execution mode.
type Options struct {
	// Site is this frontend's site id, for obs counter attribution.
	Site int
	// Obs, when non-nil, receives app_ops/app_hits/app_misses/
	// app_conflicts counts and app_op_latency_ns samples.
	Obs *obs.Obs
	// Stats, when non-nil, is the shared per-shard counter table;
	// frontends of the same site pass the same one. nil allocates a
	// private table.
	Stats *Stats
	// Sleep blocks the calling context for d: time.Sleep in live mode,
	// the simulated process's Sleep in the simulator. Default
	// time.Sleep.
	Sleep func(d time.Duration)
	// Now is the run clock used for op latency: wall time in live
	// mode (the default), virtual time in the simulator.
	Now func() time.Duration
}

// Store is one site's frontend onto the sharded KV store. Any site can
// serve any key — the DSM moves the pages. A Store built over
// mirage.Segment handles is safe for concurrent use by multiple
// goroutines; in the simulator each worker process opens its own Store
// over its own attaches (sharing Stats), since simulated accesses
// block the owning process.
type Store struct {
	cfg   Config
	segs  []Segment
	site  int
	o     *obs.Obs
	stats *Stats
	sleep func(time.Duration)
	now   func() time.Duration
}

// New builds a frontend over one attached segment handle per shard
// (segs[i] is shard i, already formatted by its creating site). The
// config must match the one the shards were formatted with; use
// CheckShard to validate when opening segments you did not create.
func New(cfg Config, segs []Segment, opt Options) (*Store, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(segs) != cfg.Shards {
		return nil, fmt.Errorf("app: %d segments for %d shards", len(segs), cfg.Shards)
	}
	s := &Store{
		cfg:   cfg,
		segs:  segs,
		site:  opt.Site,
		o:     opt.Obs,
		stats: opt.Stats,
		sleep: opt.Sleep,
		now:   opt.Now,
	}
	if s.stats == nil {
		s.stats = NewStats(cfg.Shards)
	}
	if s.sleep == nil {
		s.sleep = time.Sleep
	}
	if s.now == nil {
		base := time.Now()
		s.now = func() time.Duration { return time.Since(base) }
	}
	return s, nil
}

// Config returns the store's (defaulted) geometry.
func (s *Store) Config() Config { return s.cfg }

// Stats returns the frontend's per-shard counter table.
func (s *Store) Stats() *Stats { return s.stats }

// record is one parsed slot.
type record struct {
	state byte
	klen  int
	vlen  int
	seq   uint32
}

func parseSlot(buf []byte) record {
	return record{
		state: buf[slotState],
		klen:  int(buf[slotKLen]),
		vlen:  int(getU16(buf[slotVLen:])),
		seq:   getU32(buf[slotSeq:]),
	}
}

// begin and end time and count one op, and read the clock only when
// there is an Obs to take the sample: `defer s.end(s.begin())`.
func (s *Store) begin() time.Duration {
	if s.o == nil {
		return 0
	}
	return s.now()
}

func (s *Store) end(start time.Duration) {
	if s.o == nil {
		return
	}
	s.o.Observe(obs.HAppOpLatency, int64(s.now()-start))
	s.o.Count(s.site, obs.CAppOp)
}

// probe scans the key's shard linearly from its home slot, the whole
// shard at most. It returns the matching slot index and parsed record
// when the key is present (found), and otherwise the first insertable
// slot (a tombstone or the terminating empty slot; -1 when the shard is
// full). buf must be SlotSize bytes and holds the found slot's bytes on
// return.
func (s *Store) probe(shard int, key []byte, buf []byte) (idx int, rec record, found bool, free int, err error) {
	seg := s.segs[shard]
	home := s.cfg.homeSlot(key)
	free = -1
	for p := 0; p < s.cfg.SlotsPerShard; p++ {
		i := (home + p) % s.cfg.SlotsPerShard
		if err = seg.ReadAt(buf, s.cfg.slotOff(i)); err != nil {
			return 0, rec, false, free, err
		}
		r := parseSlot(buf)
		switch r.state {
		case SlotEmpty:
			if free == -1 {
				free = i
			}
			return 0, rec, false, free, nil
		case SlotTomb:
			if free == -1 {
				free = i
			}
		case SlotLive:
			if r.klen == len(key) && bytes.Equal(buf[slotHdr:slotHdr+r.klen], key) {
				return i, r, true, free, nil
			}
		default:
			// A torn or foreign byte pattern: treat like a tombstone so
			// one bad slot cannot wedge the probe chain.
			if free == -1 {
				free = i
			}
		}
	}
	return 0, rec, false, free, nil
}

// Get returns a copy of the key's value, or ErrNoKey. Gets take no
// lock: a slot is rewritten atomically (it never spans a page), so a
// concurrent reader sees the old or the new record, never a torn one.
func (s *Store) Get(key []byte) ([]byte, error) {
	shard, err := s.checkKey(key, nil)
	if err != nil {
		return nil, err
	}
	defer s.end(s.begin())
	sc := &s.stats.shards[shard]
	sc.gets.Add(1)
	buf := make([]byte, s.cfg.SlotSize)
	_, rec, found, _, err := s.probe(shard, key, buf)
	if err != nil {
		sc.errors.Add(1)
		return nil, fmt.Errorf("app: get shard %d: %w", shard, err)
	}
	if !s.hit(shard, found) {
		return nil, ErrNoKey
	}
	val := make([]byte, rec.vlen)
	copy(val, buf[slotHdr+rec.klen:slotHdr+rec.klen+rec.vlen])
	return val, nil
}

// Put stores the value under key, inserting or updating in place. The
// record's sequence number advances by one on every rewrite.
func (s *Store) Put(key, val []byte) error {
	_, err := s.mutate(opPut, key, nil, val)
	return err
}

// Delete removes the key, leaving a tombstone; ErrNoKey when absent.
func (s *Store) Delete(key []byte) error {
	_, err := s.mutate(opDelete, key, nil, nil)
	return err
}

// CAS conditionally replaces the key's value: when old is nil the key
// must be absent (compare-and-create), otherwise the current value
// must equal old. It reports whether the swap landed; a false return
// with nil error is a value conflict (counted per shard).
func (s *Store) CAS(key, old, val []byte) (swapped bool, err error) {
	return s.mutate(opCAS, key, old, val)
}

// The three mutations, which index shardCell.muts.
const (
	opPut = iota
	opDelete
	opCAS
)

var opNames = [...]string{opPut: "put", opDelete: "delete", opCAS: "cas"}

// mutate runs one Put, Delete or CAS under the lock of the key's home
// slot, which serializes every mutation of the key. Only those can free
// the key's slot, so an update or a delete writes the slot the probe
// found with no further lock; an insert into a free slot other than
// the home slot takes that slot's lock as well (claim). Taking the home
// lock faults the home page in writable, so a probe that stays on that
// page, the record write and the unlock are all hits.
//
// A mutation never waits for a lock while it holds one: a collision on
// either lock releases what it holds, counts a conflict and backs off,
// lockBackoff after the first and doubling up to 64×, for lockRetries
// tries. Exhausting the budget returns ErrShardBusy rather than
// spinning forever, so a crashed lock holder degrades its keys instead
// of hanging their clients.
func (s *Store) mutate(op int, key, old, val []byte) (bool, error) {
	shard, err := s.checkKey(key, val)
	if err != nil {
		return false, err
	}
	defer s.end(s.begin())
	sc := &s.stats.shards[shard]
	sc.muts[op].Add(1)
	backoff := lockBackoff
	for i := 0; i < lockRetries; i++ {
		ok, err := s.mutateLocked(op, shard, key, old, val)
		switch {
		case err == errHeld:
			sc.conflicts.Add(1)
			s.o.Count(s.site, obs.CAppConflict)
			s.sleep(backoff)
			backoff = min(2*backoff, 64*lockBackoff)
		case err != nil && !errors.Is(err, ErrNoKey):
			sc.errors.Add(1)
			return false, fmt.Errorf("app: %s shard %d: %w", opNames[op], shard, err)
		default:
			return ok, err
		}
	}
	sc.errors.Add(1)
	return false, fmt.Errorf("%w: %s shard %d", ErrShardBusy, opNames[op], shard)
}

func (s *Store) mutateLocked(op, shard int, key, old, val []byte) (bool, error) {
	home := s.cfg.homeSlot(key)
	if err := s.tryLock(shard, home); err != nil {
		return false, err
	}
	defer s.unlock(shard, home)
	buf := make([]byte, s.cfg.SlotSize)
	idx, rec, found, free, err := s.probe(shard, key, buf)
	if err != nil {
		return false, err
	}
	seq := uint32(1)
	if found {
		seq = rec.seq + 1
	} else if op == opPut || op == opCAS && old == nil {
		// An insert. A collision on the target slot's lock returns
		// before the probe is counted, so the retried op counts once.
		if idx, err = s.claim(shard, home, free, key, buf); err == errHeld {
			return false, err
		}
		if err == nil && idx != home {
			defer s.unlock(shard, idx)
		}
	}
	s.hit(shard, found)
	switch {
	case err != nil:
		return false, err
	case !found && (op == opDelete || op == opCAS && old != nil):
		return false, ErrNoKey
	case op == opCAS && found && (old == nil || !bytes.Equal(buf[slotHdr+rec.klen:slotHdr+rec.klen+rec.vlen], old)):
		s.stats.shards[shard].conflicts.Add(1)
		s.o.Count(s.site, obs.CAppConflict)
		return false, nil
	case op == opDelete:
		return true, s.segs[shard].WriteAt([]byte{SlotTomb}, s.cfg.slotOff(idx)+slotState)
	}
	s.fillSlot(buf, key, val, seq)
	return true, s.segs[shard].WriteAt(buf[:s.cfg.SlotSize-1], s.cfg.slotOff(idx))
}

// claim returns a free slot to insert the key into, locked: the home
// slot, whose lock the caller holds, or free slot t under its own lock.
// Another key may fill t between the probe and the lock, so t is read
// again under its lock and the probe runs again when t is taken. A
// held lock on t returns errHeld rather than waiting for it.
func (s *Store) claim(shard, home, t int, key, buf []byte) (int, error) {
	for t != home {
		if t == -1 {
			return -1, ErrShardFull
		}
		if err := s.tryLock(shard, t); err != nil {
			return -1, err
		}
		err := s.segs[shard].ReadAt(buf[:slotHdr], s.cfg.slotOff(t))
		if err == nil && buf[slotState] != SlotLive {
			return t, nil
		}
		s.unlock(shard, t)
		if err != nil {
			return -1, err
		}
		if _, _, _, t, err = s.probe(shard, key, buf); err != nil {
			return -1, err
		}
	}
	return t, nil
}

// hit counts a probe's outcome as a hit or a miss and returns found.
func (s *Store) hit(shard int, found bool) bool {
	if found {
		s.stats.shards[shard].hits.Add(1)
		s.o.Count(s.site, obs.CAppHit)
	} else {
		s.stats.shards[shard].misses.Add(1)
		s.o.Count(s.site, obs.CAppMiss)
	}
	return found
}

// Seq returns the key's current record sequence number (0 when
// absent) — the session-version read used by optimistic callers.
func (s *Store) Seq(key []byte) (uint32, error) {
	shard, err := s.checkKey(key, nil)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, s.cfg.SlotSize)
	_, rec, found, _, err := s.probe(shard, key, buf)
	if err != nil || !found {
		return 0, err
	}
	return rec.seq, nil
}

// checkKey validates sizes and resolves the shard.
func (s *Store) checkKey(key, val []byte) (int, error) {
	if len(key) == 0 || len(key) > 255 || slotHdr+len(key)+len(val) > s.cfg.SlotSize-1 {
		return 0, fmt.Errorf("%w: key %d val %d bytes into %d-byte slots",
			ErrTooLarge, len(key), len(val), s.cfg.SlotSize)
	}
	return s.cfg.ShardOf(key), nil
}

// fillSlot serializes a live record into buf (len SlotSize); the lock
// byte, the last, stays zero and is never written with the record.
func (s *Store) fillSlot(buf, key, val []byte, seq uint32) {
	for i := range buf {
		buf[i] = 0
	}
	buf[slotState] = SlotLive
	buf[slotKLen] = byte(len(key))
	putU16(buf[slotVLen:], uint16(len(val)))
	putU32(buf[slotSeq:], seq)
	copy(buf[slotHdr:], key)
	copy(buf[slotHdr+len(key):], val)
}

// The slot locks' retry budget: lockRetries attempts, sleeping
// lockBackoff after the first collision and doubling up to 64×.
const (
	lockRetries = 64
	lockBackoff = 100 * time.Microsecond
)

// errHeld reports a slot lock another mutation holds.
var errHeld = errors.New("app: slot lock held")

// tryLock makes one attempt at a slot's writer lock: the §7.2
// interlocked TestAndSet on the slot's lock byte. It returns errHeld
// when the lock is taken.
func (s *Store) tryLock(shard, slot int) error {
	old, err := s.segs[shard].TestAndSet(s.cfg.lockOff(slot))
	if err != nil {
		return fmt.Errorf("lock slot %d: %w", slot, err)
	}
	if old != 0 {
		return errHeld
	}
	return nil
}

// unlock releases a slot lock.
func (s *Store) unlock(shard, slot int) {
	// A failed Clear (e.g. a degraded grant mid-fault) leaves the lock
	// set; the next locker's retry budget surfaces ErrShardBusy, and
	// the error is already visible on the mutation that failed.
	_ = s.segs[shard].Clear(s.cfg.lockOff(slot))
}
