package exp

import (
	"testing"
	"time"

	"mirage/internal/chaos"
	"mirage/internal/ipc"
	"mirage/internal/obs"
)

// TestE22ReplicationSweep pins the E22 grid's qualitative shape: every
// point completes and verifies coherent, the leader crash takes the
// log-election path at R>0 and the holder rebuild at R=0, quorum loss
// falls back, and under the correlated crash the election is strictly
// cheaper than the interrogation it replaces.
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
	if p := pts["clean2"]; p.Commits == 0 || p.Degraded != 0 {
		t.Errorf("clean R=2: commits=%d degraded=%d, want a working quorum", p.Commits, p.Degraded)
	}
	if p := pts["leader-crash0"]; p.Elections != 0 || p.Recoveries != 1 {
		t.Errorf("leader-crash R=0: elections=%d recoveries=%d, want the holder rebuild", p.Elections, p.Recoveries)
	}
	for _, k := range []string{"leader-crash2", "leader-crash4"} {
		if p := pts[k]; p.Elections != 1 {
			t.Errorf("%s: elections=%d, want the log takeover", k, p.Elections)
		}
	}
	if p := pts["follower-crash2"]; p.Failovers != 0 || p.Commits == 0 {
		t.Errorf("follower-crash R=2: failovers=%d commits=%d, want the leader to keep granting", p.Failovers, p.Commits)
	}
	if p := pts["quorum-loss2"]; p.Elections != 0 || p.Recoveries != 1 {
		t.Errorf("quorum-loss R=2: elections=%d recoveries=%d, want the rebuild fallback", p.Elections, p.Recoveries)
	}
	base, repl := pts["correlated-crash0"], pts["correlated-crash2"]
	if len(base.RecoverLatency) != 1 || len(repl.RecoverLatency) != 1 {
		t.Fatalf("correlated crash recovery counts: base %v repl %v", base.RecoverLatency, repl.RecoverLatency)
	}
	if repl.RecoverLatency[0] >= base.RecoverLatency[0] {
		t.Errorf("correlated crash: log takeover %v not below holder rebuild %v",
			repl.RecoverLatency[0], base.RecoverLatency[0])
	}
	if repl.UnavailMs >= base.UnavailMs {
		t.Errorf("correlated crash: unavailable window %.1fms not below baseline %.1fms",
			repl.UnavailMs, base.UnavailMs)
	}
}

// TestReplDoubleCrashElectsFromReseededLog: a holder rebuild leaves the
// segment replicated. The library (0) dies with one of its two
// followers (2), so site 1's election cannot reach a quorum and it
// rebuilds from the holders; site 2 comes back and is re-based; then the
// rebuilt library dies too. The second takeover must be an election from
// the log site 1 seeded at its install — a log of site 1's epoch, which
// has heard of everything site 1 granted — not from what site 2 still
// held of the first library's.
func TestReplDoubleCrashElectsFromReseededLog(t *testing.T) {
	cc := replCase(2, []chaos.Crash{
		{Site: 0, From: 400 * time.Millisecond},
		{Site: 2, From: 400 * time.Millisecond, Until: 2 * time.Second},
		{Site: 1, From: 5 * time.Second},
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
	if recoveries != 2 || elections != 1 {
		t.Fatalf("recoveries=%d elections=%d, want a rebuild and then an election", recoveries, elections)
	}
	var rebuilt uint32 // the epoch the holder rebuild installed
	for _, ev := range events {
		switch ev.Type {
		case obs.EvRecover:
			if rebuilt == 0 {
				rebuilt = ev.Epoch
			} else if ev.Arg != 1 {
				t.Errorf("second takeover replaced site %d, want the rebuilt library 1", ev.Arg)
			}
		case obs.EvElect:
			// Cycle is the merged log's epoch, Arg its tail index.
			if ev.Cycle != rebuilt || ev.Arg == 0 {
				t.Errorf("site %d elected from a log of epoch %d (tail %d), want the rebuilt library's epoch %d",
					ev.Site, ev.Cycle, ev.Arg, rebuilt)
			}
		}
	}
}
