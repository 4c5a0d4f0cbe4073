package exp

import (
	"time"

	"mirage/internal/chaos"
	"mirage/internal/ipc"
)

// ---------------------------------------------------------------------------
// E22 — beyond the paper: quorum-replicated library records
// (Options.Failover, DESIGN.md §15). Every record mutation is mirrored
// to a follower quorum before it takes effect, so a takeover installs
// the record from a vote quorum of the group's logs; this experiment
// prices that standby while nothing is failing and the takeover when
// something does.
//
// The sweep crosses replication factor {2, 4} with a clean run and a
// leader fail-stop, then adds the failure modes around the group at
// R=2: a correlated crash (the leader with a bystander holder, whom the
// election never consults), a follower crash (the leader keeps granting
// on the remaining quorum) and a quorum loss (leader and one of two
// followers die together: nothing installs, and the counter is
// unavailable until the follower returns). Every point's trace verifies
// through the coherence checker, including the two replication
// invariants (log-prefix, acked-append-lost).

// ReplicationPoint is one cell of the E22 grid: a failure scenario at a
// replication factor, measured over a contended counter workload.
type ReplicationPoint struct {
	Name     string // clean | leader-crash | follower-crash | quorum-loss
	Replicas int    // replication factor R
	CounterRun

	Failovers  int // takeover triggers across all sites
	Recoveries int // completed takeovers (either path)
	Elections  int // takeovers completed from the replicated log
	Appends    int // log entries appended by leaders
	Commits    int // entries acknowledged by a follower quorum

	// RecoverLatency is, per takeover, the virtual time from the first
	// failover trigger to the successor resuming grants (trace
	// EvFailover → EvRecover).
	RecoverLatency []time.Duration
	Trace
}

// ReplicationSweepResult is the whole E22 run.
type ReplicationSweepResult struct {
	Points []ReplicationPoint `json:"points"`
	// ReplayMatches reports the determinism check: the last grid point
	// run twice gave one value and one trace.
	ReplayMatches bool `json:"replay_matches"`
}

// replSites is the E22 cluster size: large enough for an R=4 group
// (leader + 4 followers) plus two never-crashed incrementer sites.
const replSites = 7

// failStops is the E22 grid's crash plan: the listed sites fail-stopped
// at 400ms, for good, and the returning ones cut off from 400ms to 2s.
func failStops(sites, returning []int) []chaos.Partition {
	var cs []chaos.Partition
	for _, s := range sites {
		cs = append(cs, chaos.Partition{Sites: []int{s}, From: 400 * time.Millisecond})
	}
	for _, s := range returning {
		cs = append(cs, chaos.Partition{Sites: []int{s}, From: 400 * time.Millisecond, Until: 2 * time.Second})
	}
	return cs
}

// replCase is the library-crash counter workload as E22 runs it: at the
// given replication factor, under the given crashes.
func replCase(replicas int, crashes []chaos.Partition) crashCase {
	return crashCase{sites: replSites, key: 0x4522, crashes: crashes, replicas: replicas}
}

// runReplicationPoint runs one E22 grid point.
func runReplicationPoint(name string, replicas, perSite int, crashes []chaos.Partition) ReplicationPoint {
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
		}
		pt.RecoverLatency, _ = takeovers(c)
	})
	return pt
}

// replicationCell is one E22 scenario: a name, a replication factor,
// the sites crashed for good and the sites cut off for a while.
type replicationCell struct {
	name            string
	replicas        int
	crash, returned []int
}

// replicationGrid is the E22 scenario set. The crash lists name sites
// by their group role: 0 is the leader, 1..R its followers.
func replicationGrid() []replicationCell {
	return []replicationCell{
		{"clean", 2, nil, nil},
		{"clean", 4, nil, nil},
		{"leader-crash", 2, []int{0}, nil},
		{"leader-crash", 4, []int{0}, nil},
		// The correlated crash fells the library together with a
		// bystander holder (site 4, outside the R=2 group), whom the
		// election never consults.
		{"correlated-crash", 2, []int{0, 4}, nil},
		{"follower-crash", 2, []int{1}, nil},
		// The leader dies and one of its two followers is cut off until
		// 2 s: below the vote quorum nothing installs, and the segment is
		// unavailable until the follower returns.
		{"quorum-loss", 2, []int{0}, []int{2}},
	}
}

// ReplicationSweep runs the E22 grid and replays its last point. Every
// scenario is an independent deterministic cluster, so the set fans out
// across the worker pool.
func ReplicationSweep(perSite int) ReplicationSweepResult {
	pts, replay := sweepReplayed(replicationGrid(), func(g replicationCell) ReplicationPoint {
		return runReplicationPoint(g.name, g.replicas, perSite, failStops(g.crash, g.returned))
	})
	return ReplicationSweepResult{Points: pts, ReplayMatches: replay}
}
