package exp

import (
	"fmt"
	"reflect"
	"time"

	"mirage/internal/check"
	"mirage/internal/ipc"
	"mirage/internal/mem"
	"mirage/internal/obs"
)

// Trace is what the sweep harness found in one simulated point's trace;
// every point of a simulated sweep carries one.
type Trace struct {
	// Events counts the events ipc.Cluster.VerifyTrace checked.
	Events int `json:"events"`
	// Violations is what it found — the history checker, the event-order
	// check and the end-of-run idle checks — nil when the run is clean.
	Violations []check.Violation `json:"violations,omitempty"`
	// Digest is the trace's sha256 (ipc.Cluster.TraceDigest): a sweep's
	// replay compares it.
	Digest string `json:"trace_sha256"`
}

func (t Trace) trace() Trace { return t }

// simulate is the one path a simulated sweep point takes: an n-site
// cluster from cfg with a trace buffer attached, driven by run, then
// verified and digested by the cluster itself with the check
// configuration its own options imply. A point whose trace outgrew the
// buffer is a sweep sized wrong, like one whose options do not compose:
// it panics.
func simulate(n int, cfg ipc.Config, run func(*ipc.Cluster)) Trace {
	cfg.Engine.Obs = obs.New()
	c := ipc.NewCluster(n, cfg)
	run(c)
	viols, err := c.VerifyTrace()
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return Trace{Events: c.Obs.Buffer().Len(), Violations: viols, Digest: c.TraceDigest()}
}

// sweepReplayed runs a sweep's grid through run on the worker pool, and
// its last point once more: the replay holds when both runs of that
// point give one value, its trace digest among it.
func sweepReplayed[G any, P interface{ trace() Trace }](grid []G, run func(G) P) ([]P, bool) {
	n := len(grid)
	pts := sweep(append(grid[:n:n], grid[n-1]), run)
	return pts[:n:n], reflect.DeepEqual(pts[n-1], pts[n])
}

// count is how many events of type typ a traced cluster recorded.
func count(c *ipc.Cluster, typ obs.EvType) int {
	n := 0
	for _, ev := range c.Obs.Buffer().Events() {
		if ev.Type == typ {
			n++
		}
	}
	return n
}

// awaitSegment polls shmget until the segment's creator has made it.
func awaitSegment(p *ipc.Proc, key mem.Key, size int) mem.SegID {
	for {
		if id, err := p.Shmget(key, size, 0, 0); err == nil {
			return id
		}
		p.Sleep(time.Millisecond)
	}
}
