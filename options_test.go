package mirage

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mirage/internal/core"
	"mirage/internal/ipc"
	"mirage/internal/mem"
)

// simCluster builds the simulated cluster the options describe, with
// ipc.NewCluster's panic returned as the error.
func simCluster(n int, o Options) (c *ipc.Cluster, err error) {
	defer func() {
		if r := recover(); r != nil {
			if err, _ = r.(error); err == nil {
				err = fmt.Errorf("%v", r)
			}
		}
	}()
	return ipc.NewCluster(n, ipc.Config{Delta: o.Delta, Chaos: o.Chaos, Engine: core.Options{
		Policy: o.Policy, Reliability: o.Reliability, Failover: o.Failover, Placement: o.Placement,
		AutoDelta: o.AutoDelta, InvalFanout: o.InvalFanout, Obs: o.Obs,
	}}), nil
}

// liveFaults makes site 1 write-fault and site 0 read-fault one word
// twice over, and fails the test unless every access returns.
func liveFaults(t *testing.T, c *Cluster) {
	t.Helper()
	id, err := c.Site(0).Shmget(1, 512, Create, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	var segs [2]*Segment
	for i := range segs {
		if segs[i], err = c.Site(i).Attach(id, false); err != nil {
			t.Fatal(err)
		}
	}
	for v := uint32(1); v <= 2; v++ {
		if err := segs[1].SetUint32(0, v); err != nil {
			t.Fatalf("write fault: %v", err)
		}
		if got, err := segs[0].Uint32(0); err != nil || got != v {
			t.Fatalf("read fault: %d, %v; want %d", got, err, v)
		}
	}
}

// simFaults is liveFaults on a simulated cluster.
func simFaults(t *testing.T, c *ipc.Cluster) {
	t.Helper()
	const rw = mem.OwnerRead | mem.OwnerWrite | mem.OtherRead | mem.OtherWrite
	done := 0
	c.Site(0).Spawn("reader", 0, func(p *ipc.Proc) {
		id, _ := p.Shmget(1, 512, mem.Create, rw)
		h, _ := p.Shmat(id, false)
		for v := uint32(1); v <= 2; v++ {
			for {
				got, err := h.Uint32(0)
				if err != nil {
					t.Errorf("read fault: %v", err)
					return
				}
				if got >= v {
					break
				}
				p.Sleep(time.Millisecond)
			}
		}
		done++
	})
	c.Site(1).Spawn("writer", 0, func(p *ipc.Proc) {
		id, err := p.Shmget(1, 512, 0, 0)
		for ; err != nil; id, err = p.Shmget(1, 512, 0, 0) {
			p.Sleep(time.Millisecond)
		}
		h, _ := p.Shmat(id, false)
		for v := uint32(1); v <= 2; v++ {
			if err := h.SetUint32(0, v); err != nil {
				t.Errorf("write fault: %v", err)
				return
			}
			p.Sleep(50 * time.Millisecond)
		}
		done++
	})
	c.RunFor(30 * time.Second)
	if done != 2 {
		t.Fatalf("%d of 2 processes finished", done)
	}
}

// TestClusterOptionsContract: the live and the simulated cluster keep
// one option contract, core.Options.ForCluster's. Every bad value is
// refused with ErrInvalidOptions — wrapping ErrTooManySites or
// ErrNegativeDelta where one applies — by both (ipc.NewCluster panics
// with it); the live-only rules refuse with the same sentinel. And a
// layer brings the one it rests on: a cluster given only the upper layer
// builds with the reliability layer under it, and completes faulting
// accesses — under a lossy plan too, which only retransmission survives.
func TestClusterOptionsContract(t *testing.T) {
	lossy, err := ParseFaultPlan("seed=3; drop p=0.2")
	if err != nil {
		t.Fatal(err)
	}
	offCluster, err := ParseFaultPlan("crash site=9 from=1s")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		n        int
		opts     Options
		also     error // a second sentinel the refusal wraps
		liveOnly bool
	}{
		{name: "no sites", n: 0},
		{name: "more than MaxSites", n: MaxSites + 1, also: ErrTooManySites},
		{name: "negative Delta", n: 2, opts: Options{Delta: -time.Millisecond}, also: ErrNegativeDelta},
		{name: "negative AutoDelta.Min", n: 2, opts: Options{AutoDelta: &AutoDelta{Min: -1}}},
		{name: "negative AutoDelta.Step", n: 2, opts: Options{AutoDelta: &AutoDelta{Step: -time.Millisecond}}},
		{name: "inverted AutoDelta band", n: 2,
			opts: Options{AutoDelta: &AutoDelta{Min: 20 * time.Millisecond, Max: 10 * time.Millisecond}}},
		{name: "AutoDelta.Min above the default Max", n: 2, opts: Options{AutoDelta: &AutoDelta{Min: time.Hour}}},
		{name: "negative Replicas", n: 3, opts: Options{Failover: &Failover{Replicas: -1}}},
		{name: "Replicas = sites", n: 3, opts: Options{Failover: &Failover{Replicas: 3}}},
		{name: "chaos plan names a site past the cluster", n: 2, opts: Options{Chaos: offCluster}},
		{name: "negative page size", n: 2, opts: Options{PageSize: -512}, liveOnly: true},
		{name: "DebugAddr without Obs", n: 2, opts: Options{DebugAddr: "127.0.0.1:0"}, liveOnly: true},
		{name: "Check without Obs", n: 2, opts: Options{Check: true}, liveOnly: true},
		{name: "Check with a tracerless Obs", n: 2, opts: Options{Check: true, Obs: &Obs{}}, liveOnly: true},
	} {
		t.Run("refused/"+tc.name, func(t *testing.T) {
			check := func(side string, err error) {
				if !errors.Is(err, ErrInvalidOptions) {
					t.Errorf("%s: got %v, want ErrInvalidOptions", side, err)
				}
				if tc.also != nil && !errors.Is(err, tc.also) {
					t.Errorf("%s: got %v, want it to wrap %v", side, err, tc.also)
				}
			}
			c, err := NewCluster(tc.n, tc.opts)
			if err == nil {
				c.Close()
			}
			check("live", err)
			if !tc.liveOnly {
				_, err := simCluster(tc.n, tc.opts)
				check("sim", err)
			}
		})
	}

	// The edges inside the range build: one site, and 65 — past the
	// 64-site wall, into the copyset's second bitmap word.
	for _, n := range []int{1, 65} {
		c, err := NewCluster(n, Options{})
		if err != nil {
			t.Errorf("live, %d sites: %v", n, err)
			continue
		}
		c.Close()
		if _, err := simCluster(n, Options{}); err != nil {
			t.Errorf("sim, %d sites: %v", n, err)
		}
	}

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"Failover brings Reliability", Options{Failover: &Failover{}}},
		{"Failover with Replicas brings Reliability", Options{Failover: &Failover{Replicas: 1}}},
		{"a chaos plan brings Reliability", Options{Chaos: lossy}},
	} {
		t.Run("brings/"+tc.name, func(t *testing.T) {
			c, err := NewCluster(3, tc.opts)
			if err != nil {
				t.Fatalf("live: %v", err)
			}
			defer c.Close()
			sim, err := simCluster(3, tc.opts)
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			if !c.CheckConfig().Reliable || !sim.CheckConfig().Reliable {
				t.Errorf("runs the reliability layer: live %v, sim %v; want both",
					c.CheckConfig().Reliable, sim.CheckConfig().Reliable)
			}
			liveFaults(t, c)
			simFaults(t, sim)
		})
	}
}
