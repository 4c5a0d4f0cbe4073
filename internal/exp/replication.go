package exp

import (
	"time"

	"mirage/internal/chaos"
	"mirage/internal/ipc"
)

// ---------------------------------------------------------------------------
// E22 — beyond the paper: consensus-replicated library records
// (Options.Replication, DESIGN.md §15). E18 priced reactive takeover:
// the successor interrogates every surviving holder and rebuilds the
// page records from their reports, an outage bounded below by a network
// round trip to the slowest survivor. This experiment prices the
// proactive alternative — every record mutation is mirrored to a
// follower quorum before it is acknowledged, so the elected follower
// installs from its own log tail with no interrogation at all — and
// measures what the standby costs while nothing is failing.
//
// The sweep crosses replication factor {off, 2, 4} with a clean run and
// a leader fail-stop, then adds the two non-leader failure modes at
// R=2: a follower crash (the group degrades but the leader keeps
// granting) and a quorum loss (leader and one of two followers die
// together, forcing the election to fall back to E18's holder rebuild).
// Every point's trace verifies through the coherence checker, including
// the two replication invariants (log-prefix, acked-append-lost).

// ReplicationPoint is one cell of the E22 grid: a failure scenario at a
// replication factor, measured over a contended counter workload.
type ReplicationPoint struct {
	Name     string // clean | leader-crash | follower-crash | quorum-loss
	Replicas int    // replication factor R (0 = KRecover baseline)
	CounterRun

	Failovers  int // takeover triggers across all sites
	Recoveries int // completed takeovers (either path)
	Elections  int // takeovers completed from the replicated log
	Appends    int // log entries appended by leaders
	Commits    int // entries acknowledged by a follower quorum
	Degraded   int // gated mutations released without quorum

	// RecoverLatency is, per takeover, the virtual time from the first
	// failover trigger to the successor resuming grants (trace
	// EvFailover → EvRecover).
	RecoverLatency []time.Duration
	Trace
}

// ReplicationSweepResult is the whole E22 run.
type ReplicationSweepResult struct {
	Points []ReplicationPoint
	// ReplayMatches reports the determinism check: the last grid point
	// run twice gave one value and one trace.
	ReplayMatches bool
}

// replSites is the E22 cluster size: large enough for an R=4 group
// (leader + 4 followers) plus two never-crashed incrementer sites.
const replSites = 7

// failStops is the E22 grid's crash plan: the listed sites fail-stopped
// at 400ms, for good.
func failStops(sites ...int) []chaos.Crash {
	var cs []chaos.Crash
	for _, s := range sites {
		cs = append(cs, chaos.Crash{Site: s, From: 400 * time.Millisecond})
	}
	return cs
}

// replCase is the library-crash counter workload as E22 runs it: at the
// given replication factor, under the given crashes.
func replCase(replicas int, crashes []chaos.Crash) crashCase {
	return crashCase{sites: replSites, key: 0x4522, crashes: crashes, replicas: replicas}
}

// runReplicationPoint runs one E22 grid point.
func runReplicationPoint(name string, replicas, perSite int, crashes []chaos.Crash) ReplicationPoint {
	cc := replCase(replicas, crashes)
	pt := ReplicationPoint{Name: name, Replicas: replicas}
	pt.Trace = simulate(cc.sites, cc.config(), func(c *ipc.Cluster) {
		pt.CounterRun = cc.run(c, perSite)
		for i := 0; i < c.Sites(); i++ {
			st := c.Site(i).Eng.Stats()
			pt.Failovers += st.Failovers
			pt.Recoveries += st.Recoveries
			pt.Elections += st.Elections
			pt.Appends += st.Appends
			pt.Commits += st.ReplCommits
			pt.Degraded += st.ReplDegraded
		}
		pt.RecoverLatency, _ = takeovers(c)
	})
	return pt
}

// replicationCell is one E22 scenario: a name, a replication factor, and
// the sites crashed.
type replicationCell struct {
	name     string
	replicas int
	crash    []int
}

// replicationGrid is the E22 scenario set. The crash lists name sites
// by their group role: 0 is the leader, 1..R its followers.
func replicationGrid() []replicationCell {
	return []replicationCell{
		{"clean", 0, nil},
		{"clean", 2, nil},
		{"clean", 4, nil},
		{"leader-crash", 0, []int{0}},
		{"leader-crash", 2, []int{0}},
		{"leader-crash", 4, []int{0}},
		// The correlated crash fells the library together with a
		// bystander holder (site 4, outside the R=2 group): the holder
		// rebuild must wait out the dead bystander's ARQ give-up before
		// committing, while the log election never consults it.
		{"correlated-crash", 0, []int{0, 4}},
		{"correlated-crash", 2, []int{0, 4}},
		{"follower-crash", 2, []int{1}},
		{"quorum-loss", 2, []int{0, 2}},
	}
}

// ReplicationSweep runs the E22 grid and replays its last point. Every
// scenario is an independent deterministic cluster, so the set fans out
// across the worker pool.
func ReplicationSweep(perSite int) ReplicationSweepResult {
	pts, replay := sweepReplayed(replicationGrid(), func(g replicationCell) ReplicationPoint {
		return runReplicationPoint(g.name, g.replicas, perSite, failStops(g.crash...))
	})
	return ReplicationSweepResult{Points: pts, ReplayMatches: replay}
}
