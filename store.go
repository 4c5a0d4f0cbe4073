package mirage

// The service layer: a sharded key/value (session) store built
// directly on coherently shared segments. Each shard is one public
// segment whose creating site is its library — sharding spreads the
// coherence-management role across the cluster — and any site's Store
// frontend can serve any key, because the DSM moves the pages to the
// accessor. See docs/SERVICE.md for the design and internal/app for
// the record layout.

import (
	"encoding/binary"
	"fmt"

	"mirage/internal/app"
)

// StoreConfig fixes a store's cluster-wide geometry: shard count,
// slots per shard, slot size. Every site must open the store with an
// identical config; the key→shard→slot mapping is derived from it and
// stamped into each shard's header. The zero value takes the app
// package defaults (8 shards × 64 slots of 128 bytes).
type StoreConfig = app.Config

// Store is one site's frontend onto the sharded store: Get, Put,
// Delete, CAS, and per-shard Stats. A frontend over live segment
// handles is safe for concurrent goroutines.
type Store = app.Store

// StoreStats is the per-shard operation attribution table of one
// Store frontend.
type StoreStats = app.Stats

// ShardCounters is one shard's cumulative operation counts.
type ShardCounters = app.ShardCounters

// Store errors. DSM-level failures (ErrUnreachable and friends) pass
// through wrapped; errors.Is still matches them.
var (
	// ErrKeyNotFound reports a Get/Delete/CAS of an absent key.
	ErrKeyNotFound = app.ErrNoKey
	// ErrShardFull reports a Put that found no free slot in the key's
	// shard.
	ErrShardFull = app.ErrShardFull
	// ErrValueTooLarge reports a key+value that cannot fit a record
	// slot.
	ErrValueTooLarge = app.ErrTooLarge
	// ErrShardBusy reports a mutation that could not take the shard
	// lock within its retry budget (a wedged or crashed lock holder).
	ErrShardBusy = app.ErrShardBusy
	// ErrStoreCorrupt reports a shard segment whose header does not
	// match the store config.
	ErrStoreCorrupt = app.ErrCorrupt
)

// StoreKeyBase is the segment key of shard 0; shard i lives at
// StoreKeyBase+i. One store per cluster — callers needing private
// keyspaces can shard by hand with the app-layer conventions.
const StoreKeyBase Key = 0x4B56 // "KV"

// OpenStores creates, formats, and opens the store cluster-wide: each
// shard segment is created at its library site (the rendezvous-hash
// winner, StoreConfig.LibraryFor), then
// every site attaches all shards and builds its frontend. The returned
// slice has one Store per site, in site order. Each frontend has its
// own StoreStats; the cluster's Obs (when configured) receives app_ops
// counters and app_op_latency_ns samples from all of them.
func (c *Cluster) OpenStores(cfg StoreConfig) ([]*Store, error) {
	cfg = cfg.WithDefaults()
	cfg.Sites = c.Sites()
	cfg.PageSize = c.opts.PageSize
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	handles := make([][]app.Segment, c.Sites())
	for i := range handles {
		handles[i] = make([]app.Segment, cfg.Shards)
	}
	// Pass 1: every shard is created and formatted at its library site.
	for shard := 0; shard < cfg.Shards; shard++ {
		lib := cfg.LibraryFor(shard)
		h, err := createStoreShard(c.Site(lib), cfg, shard)
		if err != nil {
			return nil, err
		}
		handles[lib][shard] = h
	}
	// Pass 2: the other sites attach and validate the headers.
	stores := make([]*Store, c.Sites())
	for i := range stores {
		site := c.Site(i)
		for shard := 0; shard < cfg.Shards; shard++ {
			if handles[i][shard] != nil {
				continue
			}
			h, err := attachStoreShard(site, cfg, shard)
			if err != nil {
				return nil, err
			}
			handles[i][shard] = h
		}
		st, err := app.New(cfg, handles[i], app.Options{Site: i, Obs: c.opts.Obs})
		if err != nil {
			return nil, err
		}
		stores[i] = st
	}
	return stores, nil
}

// OpenStore opens this site's frontend onto the store: shards whose
// library is this site are created and formatted, the rest must
// already exist (their headers are validated against cfg). On a
// multi-site cluster, Cluster.OpenStores handles the cross-site
// creation ordering; OpenStore suits single-site clusters and sites
// joining a store that is already fully created.
func (s *Site) OpenStore(cfg StoreConfig) (*Store, error) {
	cfg = cfg.WithDefaults()
	cfg.Sites = s.c.Sites()
	cfg.PageSize = s.c.opts.PageSize
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	segs := make([]app.Segment, cfg.Shards)
	for shard := range segs {
		var h app.Segment
		var err error
		if cfg.LibraryFor(shard) == s.id {
			h, err = createStoreShard(s, cfg, shard)
		} else {
			h, err = attachStoreShard(s, cfg, shard)
		}
		if err != nil {
			return nil, err
		}
		segs[shard] = h
	}
	return app.New(cfg, segs, app.Options{Site: s.id, Obs: s.c.opts.Obs})
}

// createStoreShard creates (or joins) shard's segment at its library
// site. A freshly created segment, all zero, gets a formatted header;
// any other is validated against cfg instead — rejoining a live store
// must never reformat it, nor one in an older layout.
func createStoreShard(s *Site, cfg StoreConfig, shard int) (*Segment, error) {
	id, err := s.Shmget(StoreKeyBase+Key(shard), cfg.ShardBytes(), Create, 0o600)
	if err != nil {
		return nil, fmt.Errorf("mirage: create store shard %d: %w", shard, err)
	}
	h, err := s.Attach(id, false)
	if err != nil {
		return nil, fmt.Errorf("mirage: attach store shard %d: %w", shard, err)
	}
	var magic [4]byte
	if err := h.ReadAt(magic[:], 0); err != nil {
		return nil, fmt.Errorf("mirage: read store shard %d header: %w", shard, err)
	}
	if binary.LittleEndian.Uint32(magic[:]) != 0 {
		if err := app.CheckShard(h, cfg, shard); err != nil {
			return nil, err
		}
		return h, nil
	}
	if err := app.Format(h, cfg, shard); err != nil {
		return nil, fmt.Errorf("mirage: format store shard %d: %w", shard, err)
	}
	return h, nil
}

// attachStoreShard attaches an existing shard segment and validates
// its header against cfg.
func attachStoreShard(s *Site, cfg StoreConfig, shard int) (*Segment, error) {
	id, err := s.Shmget(StoreKeyBase+Key(shard), cfg.ShardBytes(), 0, 0)
	if err != nil {
		return nil, fmt.Errorf("mirage: locate store shard %d: %w", shard, err)
	}
	h, err := s.Attach(id, false)
	if err != nil {
		return nil, fmt.Errorf("mirage: attach store shard %d: %w", shard, err)
	}
	if err := app.CheckShard(h, cfg, shard); err != nil {
		return nil, err
	}
	return h, nil
}
