// Package app is Mirage's first application layer: a sharded key/value
// (session) store implemented directly on coherently shared segments.
//
// The store is the workload the DSM design is ultimately judged by —
// protocol microbenchmarks show Δ-window mechanics, but only a service
// shows what they cost per request. Each shard is one segment; the
// segment's library site — picked by rendezvous hashing over (shard,
// site), see Config.LibraryFor — is that shard's coherence manager, so
// sharding spreads the library role across the cluster. Placement is
// only the starting point: with voluntary migration enabled
// (mirage.Options.Placement) a shard's library follows its demand.
//
// Layout: a shard segment begins with one header page (magic and
// geometry), followed by a contiguous array of fixed-size record slots,
// each ending in its own writer lock byte. SlotSize divides PageSize, so a
// slot never crosses a page: a one-call ReadAt or WriteAt of a slot is
// atomic under the protocol's page-granularity single-writer rule,
// which is what makes lock-free Gets safe. Mutations (Put/Delete/CAS)
// of a key serialize on the lock of its home slot via the interlocked
// TestAndSet the paper studies in §7.2; that TestAndSet is the fault
// that brings the page the mutation writes, so a cross-site Put costs
// one fault. An insert into another free slot also takes that slot's
// lock.
//
// Keys hash with FNV-1a 64: the low digits pick the shard, the high
// digits the home slot; collisions probe linearly with tombstones, so
// a record's slot is stable for its lifetime (updates rewrite in
// place and bump the record's sequence number).
//
// The same Store front-end serves both execution modes: the public
// mirage.Segment and the simulator's ipc.Shm both satisfy Segment, and
// Options carries the mode's sleep/clock (virtual in the simulator).
package app

import (
	"errors"
	"fmt"
)

// Segment is the slice of a DSM segment handle the store needs. Both
// mirage.Segment (live clusters) and ipc.Shm (the simulator) satisfy
// it. ReadAt/WriteAt spans within one page are atomic with respect to
// the coherence protocol; TestAndSet/Clear are the interlocked byte
// operations backing the slot locks.
type Segment interface {
	ReadAt(b []byte, off int) error
	WriteAt(b []byte, off int) error
	TestAndSet(off int) (old byte, err error)
	Clear(off int) error
}

// Store errors. DSM-level failures (mirage.ErrUnreachable and friends)
// pass through wrapped, so callers can still errors.Is against them.
var (
	// ErrNoKey reports a Get/Delete/CAS of an absent key.
	ErrNoKey = errors.New("app: key not found")
	// ErrShardFull reports a Put that found no free slot within the
	// probe window of the key's shard.
	ErrShardFull = errors.New("app: shard full")
	// ErrTooLarge reports a key or value that cannot fit a slot.
	ErrTooLarge = errors.New("app: key+value exceed slot capacity")
	// ErrShardBusy reports a mutation that could not take a slot lock
	// within the retry budget (a crashed or wedged lock holder).
	ErrShardBusy = errors.New("app: slot lock busy")
	// ErrCorrupt reports a shard whose header does not carry the
	// expected magic and geometry.
	ErrCorrupt = errors.New("app: shard header corrupt")
)

// Magic is the value at byte 0 of every formatted shard (little
// endian): "MKV2", the layout with a lock byte in every slot.
const Magic uint32 = 0x32564B4D

// Header page layout (byte offsets within page 0 of a shard segment).
const (
	hdrMagic    = 0  // uint32: Magic
	hdrShard    = 4  // uint32: shard index
	hdrSlots    = 8  // uint32: slot count
	hdrSlotSize = 12 // uint32: slot size in bytes
	hdrBytes    = 16
)

// Slot layout (byte offsets within a slot). The record is bytes
// [0, SlotSize-1); the slot's last byte is its writer lock (lockOff),
// never written with the record.
const (
	slotState = 0 // byte: slot state
	slotKLen  = 1 // byte: key length
	slotVLen  = 2 // uint16: value length
	slotSeq   = 4 // uint32: record sequence, bumped by every mutation
	slotHdr   = 8 // key bytes, then value bytes
)

// Slot states.
const (
	// SlotEmpty has never held a record; probes stop here.
	SlotEmpty byte = 0
	// SlotLive holds a record.
	SlotLive byte = 1
	// SlotTomb held a deleted record; probes continue past it and Puts
	// may reuse it.
	SlotTomb byte = 2
)

// Config fixes a store's cluster-wide geometry. Every site must open
// the store with an identical Config — the key→shard→slot mapping is
// derived from it, and Format stamps it into each shard header for
// Open-time validation.
type Config struct {
	// Shards is the number of shard segments (default 8).
	Shards int
	// Sites is the cluster size; shard s's segment is created by (and
	// so has its library at) LibraryFor(s), the rendezvous-hash winner
	// among the Sites (default 1).
	Sites int
	// PageSize is the coherence unit the cluster runs with (default
	// 512, the paper's page size). SlotSize must divide it.
	PageSize int
	// SlotsPerShard is the record capacity of each shard (default 64).
	SlotsPerShard int
	// SlotSize is the fixed record slot size in bytes; must divide
	// PageSize (default 128). Capacity per record is SlotSize-9 bytes
	// of key+value.
	SlotSize int
}

// WithDefaults returns the config with zero fields defaulted.
func (c Config) WithDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.Sites == 0 {
		c.Sites = 1
	}
	if c.PageSize == 0 {
		c.PageSize = 512
	}
	if c.SlotsPerShard == 0 {
		c.SlotsPerShard = 64
	}
	if c.SlotSize == 0 {
		c.SlotSize = 128
	}
	return c
}

// Validate reports a config the layout rules reject.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if c.Shards < 1 {
		return fmt.Errorf("app: Shards %d below 1", c.Shards)
	}
	if c.SlotsPerShard < 1 {
		return fmt.Errorf("app: SlotsPerShard %d below 1", c.SlotsPerShard)
	}
	if c.SlotSize < slotHdr+3 {
		return fmt.Errorf("app: SlotSize %d below minimum %d", c.SlotSize, slotHdr+3)
	}
	if c.PageSize%c.SlotSize != 0 {
		return fmt.Errorf("app: SlotSize %d does not divide PageSize %d", c.SlotSize, c.PageSize)
	}
	if c.SlotSize > c.PageSize {
		return fmt.Errorf("app: SlotSize %d exceeds PageSize %d", c.SlotSize, c.PageSize)
	}
	return nil
}

// ShardBytes returns the segment size one shard needs: the header page
// plus the slot array, rounded up to whole pages.
func (c Config) ShardBytes() int {
	c = c.WithDefaults()
	n := c.PageSize + c.SlotsPerShard*c.SlotSize
	if r := n % c.PageSize; r != 0 {
		n += c.PageSize - r
	}
	return n
}

// LibraryFor returns the site that creates (and so serves as library
// for) shard s. Placement is rendezvous (highest-random-weight)
// hashing: every site independently scores each (shard, site) pair and
// the highest score wins, so the mapping is a pure function of the
// Config — no ring state to agree on — and spreads shards uniformly.
// Unlike the original shard%Sites convention, growing or shrinking the
// cluster by one site remaps only the ~1/Sites of shards whose winner
// changed; the rest keep their library, which keeps a resize from
// stampeding every segment through failover or migration at once.
func (c Config) LibraryFor(shard int) int {
	c = c.WithDefaults()
	best, bestScore := 0, uint64(0)
	for s := 0; s < c.Sites; s++ {
		var b [8]byte
		putU32(b[:4], uint32(shard))
		putU32(b[4:], uint32(s))
		if score := fnv1a(b[:]); s == 0 || score > bestScore {
			best, bestScore = s, score
		}
	}
	return best
}

// fnv1a is the 64-bit FNV-1a hash of key.
func fnv1a(key []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// ShardOf returns the shard a key maps to.
func (c Config) ShardOf(key []byte) int {
	c = c.WithDefaults()
	return int(fnv1a(key) % uint64(c.Shards))
}

// homeSlot returns the key's first probe slot within its shard. The
// shard is taken from the hash's low digits, the slot from the high,
// so the two indices stay uncorrelated.
func (c Config) homeSlot(key []byte) int {
	return int((fnv1a(key) >> 17) % uint64(c.SlotsPerShard))
}

// slotOff returns the byte offset of slot i. Slots start after the
// header page and pack contiguously; SlotSize divides PageSize, so no
// slot crosses a page boundary.
func (c Config) slotOff(i int) int {
	return c.PageSize + i*c.SlotSize
}

// lockOff returns the byte offset of slot i's writer lock, its last
// byte.
func (c Config) lockOff(i int) int {
	return c.slotOff(i) + c.SlotSize - 1
}

// MaxValue returns the largest value the store can hold for a key of
// length klen (0 when the key itself cannot fit).
func (c Config) MaxValue(klen int) int {
	c = c.WithDefaults()
	n := c.SlotSize - 1 - slotHdr - klen
	if n < 0 || klen > 255 {
		return 0
	}
	return n
}

// Format writes shard's header page. The creating site calls it once
// after creating the segment, before any frontend opens the shard.
func Format(seg Segment, c Config, shard int) error {
	c = c.WithDefaults()
	if err := c.Validate(); err != nil {
		return err
	}
	var hdr [hdrBytes]byte
	putU32(hdr[hdrMagic:], Magic)
	putU32(hdr[hdrShard:], uint32(shard))
	putU32(hdr[hdrSlots:], uint32(c.SlotsPerShard))
	putU32(hdr[hdrSlotSize:], uint32(c.SlotSize))
	return seg.WriteAt(hdr[:], 0)
}

// CheckShard validates shard's header against the config: magic,
// index, and geometry must match. It returns ErrCorrupt (wrapped with
// detail) on mismatch, including the all-zero header of a shard that
// was never formatted.
func CheckShard(seg Segment, c Config, shard int) error {
	c = c.WithDefaults()
	var hdr [hdrBytes]byte
	if err := seg.ReadAt(hdr[:], 0); err != nil {
		return err
	}
	if m := getU32(hdr[hdrMagic:]); m != Magic {
		return fmt.Errorf("%w: shard %d magic %#x", ErrCorrupt, shard, m)
	}
	if s := getU32(hdr[hdrShard:]); s != uint32(shard) {
		return fmt.Errorf("%w: segment is shard %d, expected %d", ErrCorrupt, s, shard)
	}
	if n := getU32(hdr[hdrSlots:]); n != uint32(c.SlotsPerShard) {
		return fmt.Errorf("%w: shard %d has %d slots, config says %d", ErrCorrupt, shard, n, c.SlotsPerShard)
	}
	if n := getU32(hdr[hdrSlotSize:]); n != uint32(c.SlotSize) {
		return fmt.Errorf("%w: shard %d slot size %d, config says %d", ErrCorrupt, shard, n, c.SlotSize)
	}
	return nil
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putU16(b []byte, v uint16) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
}

func getU16(b []byte) uint16 {
	return uint16(b[0]) | uint16(b[1])<<8
}
