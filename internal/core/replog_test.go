package core

import (
	"sync"
	"testing"
	"time"

	"mirage/internal/mmu"
	"mirage/internal/obs"
)

// replOptions enables the full replication stack with short timers so
// the sim-driven tests cross the give-up and recovery horizons quickly.
func replOptions(o *obs.Obs, replicas int) Options {
	return Options{
		Reliability: &Reliability{
			AckTimeout: 20 * time.Millisecond, MaxBackoff: 100 * time.Millisecond,
			MaxAttempts: 5, RequestTimeout: 10 * time.Second,
		},
		Failover:    &Failover{RecoverTimeout: 500 * time.Millisecond},
		Replication: &Replication{Replicas: replicas},
		Obs:         o,
	}
}

// crash marks a site dead: every message to or from it is dropped, so
// its peers' reliable channels give up on it.
func (n *testNet) crash(site int) { n.down[site] = true }

// TestReplEntryCodecRoundTrip round-trips entries through the wire form
// across both copyset encodings (the sparse member list and the dense
// bitmap) and both entry kinds.
func TestReplEntryCodecRoundTrip(t *testing.T) {
	sparse := mmu.CopysetOf(1).Add(5).Add(63)
	dense := mmu.Copyset{}
	for s := 0; s < 40; s++ {
		dense = dense.Add(s)
	}
	rec := func(page int32, writer, clock int, delta time.Duration, readers mmu.Copyset) libRecord {
		return libRecord{page: page, writer: writer, clock: clock, delta: delta, readers: readers,
			lastWriter: mmu.NoWriter}
	}
	cases := []replEntry{
		{index: 1, post: rec(0, 3, 3, 20*time.Millisecond, mmu.Copyset{})},
		{index: 7, post: rec(2, mmu.NoWriter, 1, 0, sparse)},
		{index: 9, post: rec(5, mmu.NoWriter, 0, time.Second, dense)},
		{intent: true, index: 12,
			post:  rec(1, 2, 2, 5*time.Millisecond, mmu.Copyset{}),
			prior: rec(1, mmu.NoWriter, 4, 0, sparse)},
		{intent: true, index: 13,
			post:  rec(3, mmu.NoWriter, 6, 0, dense),
			prior: rec(3, 6, 6, 0, mmu.Copyset{})},
	}
	var buf []byte
	for i := range cases {
		buf = encodeReplEntry(buf, &cases[i])
	}
	for i := range cases {
		ent, n, err := decodeReplEntry(buf)
		if err != nil {
			t.Fatalf("entry %d: decode: %v", i, err)
		}
		want := cases[i]
		if ent.intent != want.intent || ent.index != want.index {
			t.Fatalf("entry %d: header %+v, want %+v", i, ent, want)
		}
		if !sameRecord(ent.post, want.post) || !sameRecord(ent.prior, want.prior) {
			t.Fatalf("entry %d: records %+v / %+v, want %+v / %+v", i, ent.post, ent.prior, want.post, want.prior)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes after all entries", len(buf))
	}
}

// TestReplEntryCodecRejectsCorrupt feeds truncations and corruptions of
// a valid entry to the decoder; none may round-trip silently.
func TestReplEntryCodecRejectsCorrupt(t *testing.T) {
	ent := replEntry{intent: true, index: 4,
		post:  libRecord{page: 1, writer: 2, clock: 2, delta: time.Millisecond},
		prior: libRecord{page: 1, writer: mmu.NoWriter, clock: 3, readers: mmu.CopysetOf(3).Add(4)}}
	good := encodeReplEntry(nil, &ent)
	for cut := 0; cut < len(good); cut++ {
		if _, _, err := decodeReplEntry(good[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", cut, len(good))
		}
	}
	bad := append([]byte(nil), good...)
	bad[0] = 99 // unknown kind
	if _, _, err := decodeReplEntry(bad); err == nil {
		t.Fatal("unknown entry kind decoded")
	}
}

// TestReplQuorumGatesMutations: with two followers, every record
// mutation must append to the log and commit at quorum before the world
// sees its effects.
func TestReplQuorumGatesMutations(t *testing.T) {
	o := obs.New()
	n := newTestNet(t, 3, replOptions(o, 2))
	n.newSeg(2, 0)

	n.acquire(1, 1, 0, true)
	n.acquire(2, 1, 0, false)
	n.acquire(2, 1, 1, true)
	n.settle()

	lib := n.engines[0]
	st := lib.Stats()
	if st.Appends == 0 {
		t.Fatal("no log appends at the leader")
	}
	if st.ReplCommits == 0 {
		t.Fatal("no quorum commits at the leader")
	}
	if st.ReplDegraded != 0 {
		t.Fatalf("ReplDegraded = %d with the whole group alive", st.ReplDegraded)
	}
	// Followers mirror the record: their compacted log's latest entries
	// must agree with the leader's authoritative record.
	for _, f := range []int{1, 2} {
		rl := n.engines[f].segs[1].repl
		if rl == nil {
			t.Fatalf("site %d holds no replica log", f)
		}
		for pg := int32(0); pg < 2; pg++ {
			ent := rl.pages[pg]
			if ent == nil {
				t.Fatalf("site %d: no log entry for page %d", f, pg)
			}
			want := lib.LibraryState(1, pg)
			if ent.post.writer != want.Writer || !ent.post.readers.Equal(want.Readers) {
				t.Errorf("site %d page %d: replica writer=%d readers=%v, record %d/%v",
					f, pg, ent.post.writer, ent.post.readers, want.Writer, want.Readers)
			}
		}
	}
	// Leader commits and follower applies both appear in the trace.
	var leaderCommits, followerApplies int
	for _, ev := range o.Buffer().Events() {
		if ev.Type != obs.EvReplicate {
			continue
		}
		if ev.Site == int32(ev.From) {
			leaderCommits++
		} else {
			followerApplies++
		}
	}
	if leaderCommits == 0 || followerApplies == 0 {
		t.Fatalf("trace: %d leader commits, %d follower applies; want both > 0",
			leaderCommits, followerApplies)
	}
}

// TestReplElectionInstallsFromLog: after the leader crashes, the
// nominated follower installs the record from its replicated log (an
// election, not a holder rebuild) and the record survives exactly.
func TestReplElectionInstallsFromLog(t *testing.T) {
	o := obs.New()
	n := newTestNet(t, 3, replOptions(o, 2))
	n.newSeg(2, 0)

	n.acquire(1, 1, 0, true) // site 1 becomes page 0's writer
	n.acquire(2, 1, 1, false)
	n.settle()

	n.crash(0)
	n.acquire(2, 1, 0, false) // forces a request → give-up → takeover
	n.settle()

	succ := n.engines[1]
	st := succ.Stats()
	if st.Elections != 1 {
		t.Fatalf("successor Elections = %d, want 1", st.Elections)
	}
	if st.Recoveries != 1 {
		t.Fatalf("successor Recoveries = %d, want 1", st.Recoveries)
	}
	ls := succ.LibraryState(1, 0)
	if ls.Writer != mmu.NoWriter || !ls.Readers.Has(2) {
		t.Errorf("page 0 after takeover: writer=%d readers=%v, want read copy at site 2",
			ls.Writer, ls.Readers)
	}
	ls1 := succ.LibraryState(1, 1)
	if !ls1.Readers.Has(2) {
		t.Errorf("page 1 after takeover lost reader 2: %+v", ls1)
	}
	var elects int
	for _, ev := range o.Buffer().Events() {
		if ev.Type == obs.EvElect {
			elects++
			if ev.Site != 1 || ev.From != 0 {
				t.Errorf("EvElect site=%d from=%d, want 1/0", ev.Site, ev.From)
			}
		}
	}
	if elects != 1 {
		t.Fatalf("trace has %d EvElect events, want 1", elects)
	}
	if got := o.Metrics.Total(obs.CElect); got != 1 {
		t.Errorf("elections counter = %d, want 1", got)
	}
}

// TestReplElectionFallback: when the vote quorum is unreachable the
// takeover must fall back to the legacy holder rebuild — a recovery
// without an election.
func TestReplElectionFallback(t *testing.T) {
	n := newTestNet(t, 3, replOptions(nil, 2))
	n.newSeg(2, 0)

	n.acquire(1, 1, 0, false) // survivor holds a read copy of page 0
	n.settle()

	n.crash(0)
	n.crash(2) // the only other voter dies with the leader
	// The write upgrade must reach the library: give-up nominates site 1,
	// whose election cannot reach a quorum and falls back to the rebuild.
	n.acquire(1, 1, 0, true)
	n.settle()

	st := n.engines[1].Stats()
	if st.Elections != 0 {
		t.Fatalf("Elections = %d after quorum loss, want 0 (fallback)", st.Elections)
	}
	if st.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", st.Recoveries)
	}
	// The rebuilt record granted the upgrade: site 1 writes page 0.
	if ls := n.engines[1].LibraryState(1, 0); ls.Writer != 1 {
		t.Errorf("page 0 writer = %d after fallback rebuild, want 1", ls.Writer)
	}
}

// TestReplDegradedReleasesGates: when the live group cannot form a
// quorum, gated mutations must release degraded instead of wedging the
// grant path.
func TestReplDegradedReleasesGates(t *testing.T) {
	n := newTestNet(t, 4, replOptions(nil, 3))
	n.newSeg(1, 0)

	n.acquire(1, 1, 0, true)
	n.settle()
	n.crash(2)
	n.crash(3)

	// Quorum is 3 of {0,1,2,3}; only the leader and follower 1 survive.
	n.acquire(0, 1, 0, true)
	n.settle()

	st := n.engines[0].Stats()
	if st.ReplDegraded == 0 {
		t.Fatal("no degraded gate releases with the quorum unreachable")
	}
	if ls := n.engines[0].LibraryState(1, 0); ls.Writer != 0 {
		t.Errorf("page 0 writer = %d, want 0 (grant must proceed degraded)", ls.Writer)
	}
}

// TestReplConcurrentClusters runs the append-storm and crash-election
// scenarios in parallel goroutines, each on a private cluster. The
// engines are actor-serialized; this catches any package-level state
// the replication layer would share across engines under -race.
func TestReplConcurrentClusters(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := newTestNet(t, 3, replOptions(nil, 2))
			n.newSeg(2, 0)
			for i := 0; i < 4; i++ {
				n.acquire(1, 1, 0, true)
				n.acquire(2, 1, 0, false)
				n.acquire(2, 1, 1, true)
			}
			n.settle()
			if g%2 == 0 { // half the clusters also crash their leader
				n.crash(0)
				// Site 1 was invalidated off page 1 by site 2's write, so
				// this access faults, gives up, and triggers the takeover.
				n.acquire(1, 1, 1, false)
				n.settle()
				if el := n.engines[1].Stats().Elections; el != 1 {
					t.Errorf("cluster %d: Elections = %d, want 1", g, el)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReplMigrationShipsLogHead: a voluntary migration must leave the
// successor leading a freshly seeded log (the offer is the log head),
// with the old leader deposed.
func TestReplMigrationShipsLogHead(t *testing.T) {
	opt := replOptions(nil, 2)
	opt.Placement = &Placement{
		Window: 50 * time.Millisecond, MinRequests: 4,
		Share: 0.5, PingPong: 0.8, Cooldown: time.Hour,
	}
	n := newTestNet(t, 3, opt)
	n.newSeg(2, 0)

	driveSkew(n, 1, 40)
	n.settle()

	if got := n.engines[1].Stats().Migrations; got != 1 {
		t.Fatalf("site 1 accepted %d migrations, want 1", got)
	}
	old, succ := n.engines[0].segs[1], n.engines[1].segs[1]
	if old.repl == nil || old.repl.lead != nil {
		t.Error("deposed leader still leads the replication group")
	}
	if succ.repl == nil || succ.repl.lead == nil {
		t.Fatal("successor does not lead the replication group")
	}
	if succ.repl.epoch != succ.segEpoch.Load() {
		t.Errorf("successor log epoch %d != segment epoch %d", succ.repl.epoch, succ.segEpoch.Load())
	}
	if len(succ.repl.pages) != 2 {
		t.Errorf("successor log seeded with %d pages, want 2", len(succ.repl.pages))
	}
}
