package exp

import (
	"reflect"
	"testing"
	"time"

	"mirage"
	"mirage/internal/app"
	"mirage/internal/check"
	"mirage/internal/core"
	"mirage/internal/ipc"
	"mirage/internal/obs"
)

// TestTracingDoesNotPerturbAPoint: attaching an Obs — a registry, a trace
// buffer and the event-order check recording into it — leaves a simulated
// run unchanged. One point of each sweep shape runs on a bare cluster and
// on a traced one built from the same config, and must give one value
// and the same engine counters. Every sweep point is traced now, so a
// replay comparing two traced runs cannot show this.
func TestTracingDoesNotPerturbAPoint(t *testing.T) {
	svc := ServiceConfig{Duration: time.Second}.WithDefaults()
	mig := MigrationConfig{Duration: 4 * time.Second}.WithDefaults()
	ad := AutoDeltaConfig{PingPongDur: time.Second, Warmup: time.Second}.WithDefaults()
	crash := failoverCase(1)
	loss := faultCase{5, "seed=42; drop p=0.05; dup p=0.05; delay p=0.1 max=5ms"}
	for _, tc := range []struct {
		name string
		n    int
		cfg  func() ipc.Config
		run  func(*ipc.Cluster) any
	}{
		{"E14 counter under loss", faultSites, loss.config,
			func(c *ipc.Cluster) any { return runFaultWorkload(c, 4) }},
		{"E18/E22 library crash", crash.sites, crash.config,
			func(c *ipc.Cluster) any { return crash.run(c, 4) }},
		{"E19 service rung under chaos", svc.Sites, func() ipc.Config { return serviceCluster(svc, true) },
			func(c *ipc.Cluster) any { return RunService(c, svc, 200, app.NewStats(storeShards), nil) }},
		{"E21 shifting affinity with placement", mig.Sites, func() ipc.Config { return mig.cluster(true) },
			func(c *ipc.Cluster) any { return RunAffinity(c, mig, true, app.NewStats(storeShards), nil) }},
		{"E23 ping-pong controller cell", 2, func() ipc.Config { _, cfg := ad.cluster("pingpong", -1); return cfg },
			func(c *ipc.Cluster) any { score, _ := ad.run("pingpong", c); return score }},
	} {
		// The point's value, and every site's engine counters beside it.
		run := func(c *ipc.Cluster) []any {
			out := []any{tc.run(c)}
			for i := 0; i < c.Sites(); i++ {
				out = append(out, c.Site(i).Eng.Stats())
			}
			return out
		}
		bare := run(ipc.NewCluster(tc.n, tc.cfg()))
		cfg := tc.cfg()
		cfg.Engine.Obs = obs.New()
		traced := ipc.NewCluster(tc.n, cfg)
		if got := run(traced); !reflect.DeepEqual(bare, got) {
			t.Errorf("%s: traced run differs\n bare:   %+v\n traced: %+v", tc.name, bare, got)
		}
		if traced.Obs.Buffer().Len() == 0 {
			t.Errorf("%s: the traced run recorded nothing", tc.name)
		}
	}
}

// TestCheckConfigDerivedFromCluster: the checker configuration a sweep's
// trace is verified with comes from the point's own cluster, and equals
// what each sweep, or miragebench for it, used to write out by hand. A
// live cluster given the same options derives the same configuration,
// apart from its wall-clock Slack.
func TestCheckConfigDerivedFromCluster(t *testing.T) {
	scale := func(spec string) ipc.Config {
		cfg, err := scaleConfig(4, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	point := func(n int, cfg ipc.Config) func() (int, ipc.Config) {
		return func() (int, ipc.Config) { return n, cfg }
	}
	live := func(n int, cfg ipc.Config) check.Config {
		e := cfg.Engine
		c, err := mirage.NewCluster(n, mirage.Options{Delta: cfg.Delta, Chaos: cfg.Chaos, Policy: e.Policy,
			Reliability: e.Reliability, Failover: e.Failover, Placement: e.Placement,
			AutoDelta: e.AutoDelta, InvalFanout: e.InvalFanout})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		got := c.CheckConfig()
		got.Slack = 0
		return got
	}
	mig := MigrationConfig{}.WithDefaults()
	ad := AutoDeltaConfig{}.WithDefaults()
	floor := core.AutoDelta{}.Min
	for _, tc := range []struct {
		name  string
		point func() (int, ipc.Config)
		want  check.Config
	}{
		{"E18", point(4, failoverCase(2).config()), check.Config{Sites: 4, Reliable: true}},
		{"E20 checked, clean", point(20, scale("")), check.Config{Sites: 20, Delta: 2 * time.Millisecond}},
		{"E20 checked, relay crash", point(20, scale("seed=7; crash site=5 from=2200ms until=10s")),
			check.Config{Sites: 20, Delta: 2 * time.Millisecond, Reliable: true}},
		{"E21", point(mig.Sites, mig.cluster(true)), check.Config{Sites: 4, Reliable: true}},
		{"E22", point(replSites, replCase(2, failStops([]int{0}, nil)).config()), check.Config{Sites: 7, Reliable: true}},
		{"E23 pingpong", func() (int, ipc.Config) { return ad.cluster("pingpong", -1) }, check.Config{Sites: 2, Delta: floor}},
		{"E23 service", func() (int, ipc.Config) { return ad.cluster("service", -1) }, check.Config{Sites: 4, Delta: floor}},
		{"E23 affinity", func() (int, ipc.Config) { return ad.cluster("affinity", -1) },
			check.Config{Sites: 4, Delta: floor, Reliable: true}},
	} {
		if got := ipc.NewCluster(tc.point()).CheckConfig(); got != tc.want {
			t.Errorf("%s: derived %+v, want %+v", tc.name, got, tc.want)
		}
		if got := live(tc.point()); got != tc.want {
			t.Errorf("%s, live: derived %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
