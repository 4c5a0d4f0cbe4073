package app

import (
	"fmt"
	"io"
	"sync/atomic"
)

// ShardCounters is one shard's operation attribution. All fields are
// cumulative; Conflicts counts shard-lock collisions (a TestAndSet
// that found the lock held) plus CAS value mismatches — the store's
// contention signal, the application-level analogue of the protocol's
// Δ-denial counter.
type ShardCounters struct {
	Gets, Puts, Deletes, CASes int64
	Hits, Misses               int64
	Conflicts                  int64
	Errors                     int64
}

// Ops returns the shard's total operation count.
func (s ShardCounters) Ops() int64 { return s.Gets + s.Puts + s.Deletes + s.CASes }

// Add returns the field-wise sum of s and o.
func (s ShardCounters) Add(o ShardCounters) ShardCounters {
	return ShardCounters{
		Gets: s.Gets + o.Gets, Puts: s.Puts + o.Puts, Deletes: s.Deletes + o.Deletes, CASes: s.CASes + o.CASes,
		Hits: s.Hits + o.Hits, Misses: s.Misses + o.Misses,
		Conflicts: s.Conflicts + o.Conflicts, Errors: s.Errors + o.Errors,
	}
}

// shardCell is the atomic backing of one shard's counters.
type shardCell struct {
	gets, puts, deletes, cases atomic.Int64
	hits, misses               atomic.Int64
	conflicts                  atomic.Int64
	errors                     atomic.Int64
}

// Stats is the per-shard counter table for one store. Frontends on the
// same site (or the per-worker stores of a simulated site) share one
// Stats via Options so the attribution aggregates; its methods are
// safe for concurrent use.
type Stats struct {
	shards []shardCell
}

// NewStats returns a zeroed table for a store with the given shard
// count.
func NewStats(shards int) *Stats {
	return &Stats{shards: make([]shardCell, shards)}
}

// Shard returns a point-in-time copy of one shard's counters.
func (st *Stats) Shard(i int) ShardCounters {
	c := &st.shards[i]
	return ShardCounters{
		Gets: c.gets.Load(), Puts: c.puts.Load(), Deletes: c.deletes.Load(), CASes: c.cases.Load(),
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		Conflicts: c.conflicts.Load(), Errors: c.errors.Load(),
	}
}

// Shards returns the shard count.
func (st *Stats) Shards() int { return len(st.shards) }

// Total returns the sum over all shards.
func (st *Stats) Total() ShardCounters {
	var t ShardCounters
	for i := range st.shards {
		t = t.Add(st.Shard(i))
	}
	return t
}

// Digest renders a compact deterministic one-line summary, used by the
// simulator's -runs determinism comparison.
func (st *Stats) Digest() string {
	t := st.Total()
	return fmt.Sprintf("app{ops=%d get=%d put=%d del=%d cas=%d hit=%d miss=%d conflict=%d err=%d}",
		t.Ops(), t.Gets, t.Puts, t.Deletes, t.CASes, t.Hits, t.Misses, t.Conflicts, t.Errors)
}

// WriteTo prints the per-shard table (one row per shard with any
// traffic, plus a totals row).
func (st *Stats) WriteTo(w io.Writer) (int64, error) {
	var written int64
	pf := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		written += int64(n)
		return err
	}
	if err := pf("%-6s %8s %8s %8s %8s %8s %8s %9s %6s\n",
		"shard", "gets", "puts", "deletes", "cas", "hits", "misses", "conflicts", "errs"); err != nil {
		return written, err
	}
	for i := range st.shards {
		s := st.Shard(i)
		if s.Ops() == 0 && s.Errors == 0 {
			continue
		}
		if err := pf("%-6d %8d %8d %8d %8d %8d %8d %9d %6d\n",
			i, s.Gets, s.Puts, s.Deletes, s.CASes, s.Hits, s.Misses, s.Conflicts, s.Errors); err != nil {
			return written, err
		}
	}
	t := st.Total()
	err := pf("%-6s %8d %8d %8d %8d %8d %8d %9d %6d\n",
		"total", t.Gets, t.Puts, t.Deletes, t.CASes, t.Hits, t.Misses, t.Conflicts, t.Errors)
	return written, err
}
