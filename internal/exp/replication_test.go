package exp

import (
	"testing"
	"time"

	"mirage/internal/chaos"
	"mirage/internal/ipc"
	"mirage/internal/obs"
)

// TestE22ReplicationSweep pins the E22 grid's qualitative shape: every
// point completes and verifies coherent, every leader crash takes the
// log-election path, a follower crash triggers no takeover, and a
// quorum loss installs nothing until the follower returns.
func TestE22ReplicationSweep(t *testing.T) {
	r := ReplicationSweep(8)
	if !r.ReplayMatches {
		t.Error("same-seed replay diverged")
	}
	pts := map[string]ReplicationPoint{}
	for _, p := range r.Points {
		if !p.Completed {
			t.Errorf("%s R=%d: workload incomplete (%d/%d)", p.Name, p.Replicas, p.Final, p.Want)
		}
		for _, v := range p.Violations {
			t.Errorf("%s R=%d: coherence violation: %v", p.Name, p.Replicas, v)
		}
		pts[p.Name+string(rune('0'+p.Replicas))] = p
	}
	if p := pts["clean2"]; p.Commits == 0 || p.Failovers != 0 {
		t.Errorf("clean R=2: commits=%d failovers=%d, want a working quorum", p.Commits, p.Failovers)
	}
	for _, k := range []string{"leader-crash2", "leader-crash4", "correlated-crash2"} {
		if p := pts[k]; p.Elections != 1 || p.Recoveries != 1 {
			t.Errorf("%s: elections=%d recoveries=%d, want one log takeover", k, p.Elections, p.Recoveries)
		}
	}
	// The cut-off follower's own give-up nominates, but nothing installs.
	if p := pts["follower-crash2"]; p.Recoveries != 0 || p.Commits == 0 {
		t.Errorf("follower-crash R=2: recoveries=%d commits=%d, want the leader to keep granting", p.Recoveries, p.Commits)
	}
	// The follower is back at 2 s; nothing installs before it.
	p := pts["quorum-loss2"]
	if p.Elections != 1 || len(p.RecoverLatency) != 1 {
		t.Fatalf("quorum-loss R=2: elections=%d latencies=%v, want one election once the group returns",
			p.Elections, p.RecoverLatency)
	}
	if p.UnavailMs < 1600 {
		t.Errorf("quorum-loss R=2: longest increment %.0fms, want the 1.6 s the follower was away", p.UnavailMs)
	}
}

// TestReplDoubleCrashElectsFromReseededLog: a library elected after a
// quorum loss leaves the segment replicated. The library (0) dies with
// one of its two followers (2) cut off, so site 1's election cannot
// reach a quorum until site 2 is back at 2 s; then the elected library
// dies too. The second takeover must be an election from the log site
// 1 seeded at its install — a log of site 1's epoch, which has heard of
// everything site 1 granted — not from what site 2 still held of the
// first library's.
func TestReplDoubleCrashElectsFromReseededLog(t *testing.T) {
	cc := replCase(2, []chaos.Partition{
		{Sites: []int{0}, From: 400 * time.Millisecond},
		{Sites: []int{2}, From: 400 * time.Millisecond, Until: 2 * time.Second},
		{Sites: []int{1}, From: 5 * time.Second},
	})
	var run CounterRun
	var recoveries, elections int
	var events []obs.Event
	tr := simulate(cc.sites, cc.config(), func(c *ipc.Cluster) {
		run = cc.run(c, 70)
		for i := 0; i < c.Sites(); i++ {
			recoveries += c.Site(i).Eng.Stats().Recoveries
			elections += c.Site(i).Eng.Stats().Elections
		}
		events = c.Obs.Buffer().Events()
	})
	if !run.Completed {
		t.Errorf("workload incomplete (%d/%d)", run.Final, run.Want)
	}
	for _, v := range tr.Violations {
		t.Errorf("coherence violation: %v", v)
	}
	if recoveries != 2 || elections != 2 {
		t.Fatalf("recoveries=%d elections=%d, want two elections", recoveries, elections)
	}
	var first uint32 // the epoch the first election installed
	for _, ev := range events {
		if ev.Type != obs.EvElect {
			continue
		}
		if first == 0 {
			if ev.T < 2*time.Second {
				t.Errorf("first election at %v, before the follower returned", ev.T)
			}
			first = ev.Epoch
			continue
		}
		// Cycle is the merged log's epoch, Arg its tail index.
		if ev.From != 1 || ev.Cycle != first || ev.Arg == 0 {
			t.Errorf("site %d replaced %d from a log of epoch %d (tail %d), want library 1's epoch %d",
				ev.Site, ev.From, ev.Cycle, ev.Arg, first)
		}
	}
}
