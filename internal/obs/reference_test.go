package obs_test

import (
	"testing"
	"time"

	"mirage/internal/app"
	"mirage/internal/core"
	"mirage/internal/exp"
	"mirage/internal/ipc"
	"mirage/internal/obs"
	"mirage/internal/wire"
)

// receipt is one request as a library received it: the reference log's
// entry, read off the trace by hand.
type receipt struct {
	t     time.Duration
	at    int32 // the site addressed as library
	from  int32 // the requesting site
	write bool
}

func receipts(events []obs.Event) map[[2]int32][]receipt {
	out := make(map[[2]int32][]receipt)
	for _, ev := range events {
		if ev.Type != obs.EvMsgRecv || (ev.Kind != wire.KReadReq && ev.Kind != wire.KWriteReq) {
			continue
		}
		k := [2]int32{ev.Seg, ev.Page}
		out[k] = append(out[k], receipt{t: ev.T, at: ev.Site, from: ev.From, write: ev.Kind == wire.KWriteReq})
	}
	return out
}

// TestSummaryReferenceView: the §9.0 reference log is a view of the
// trace. On simulator traces of the counters and the three-site readers
// workloads, and of an affinity run whose libraries migrate, every
// column Summarize reports for a page is what a hand count of the
// page's request receipts gives.
func TestSummaryReferenceView(t *testing.T) {
	record := func(n int, cfg ipc.Config, run func(c *ipc.Cluster, o *obs.Obs)) []obs.Event {
		o := obs.New()
		cfg.Engine.Obs = o
		c := ipc.NewCluster(n, cfg)
		run(c, o)
		if d := o.Buffer().Dropped(); d != 0 {
			t.Fatalf("trace buffer dropped %d events", d)
		}
		return o.Buffer().Events()
	}
	traces := map[string][]obs.Event{
		"counters": record(2, ipc.Config{Delta: 120 * time.Millisecond}, func(c *ipc.Cluster, _ *obs.Obs) {
			exp.RunCountersForDebug(c, 3*time.Second)
		}),
		"readers": record(3, ipc.Config{Delta: 100 * time.Millisecond}, func(c *ipc.Cluster, _ *obs.Obs) {
			const dur = 2 * time.Second
			var writes, reads int
			exp.SpawnSharedWriter(c, 0, dur, &writes)
			exp.SpawnSharedReader(c, 1, dur, &reads)
			exp.SpawnSharedReader(c, 2, dur, &reads)
			c.Run()
		}),
		// Libraries move: a page's receipts are at the old site and at the
		// new one, and both count.
		"migration": record(4, ipc.Config{Engine: core.Options{
			Reliability: &core.Reliability{}, Placement: exp.MigrationConfig{}.Policy(),
		}}, func(c *ipc.Cluster, o *obs.Obs) {
			cfg := exp.MigrationConfig{Duration: 6 * time.Second, Rate: 150}.WithDefaults()
			exp.RunAffinity(c, cfg, false, app.NewStats(cfg.AppConfig().Shards), o)
		}),
	}
	for name, events := range traces {
		t.Run(name, func(t *testing.T) {
			want := receipts(events)
			if len(want) == 0 {
				t.Fatal("trace has no request receipts")
			}
			moved := 0
			pages := 0
			for _, p := range obs.Summarize(events).Pages {
				rs := want[[2]int32{p.Seg, p.Page}]
				if p.Requests() != len(rs) || p.Requests() != p.Reads+p.Writes {
					t.Errorf("seg%d/p%d: requests %d (reads %d + writes %d), trace has %d receipts",
						p.Seg, p.Page, p.Requests(), p.Reads, p.Writes, len(rs))
				}
				if len(rs) == 0 {
					continue
				}
				pages++
				writes := 0
				bySite := map[int32]int{}
				libs := map[int32]bool{}
				var gaps time.Duration
				for i, r := range rs {
					if r.write {
						writes++
					}
					bySite[r.from]++
					libs[r.at] = true
					if i > 0 {
						gaps += r.t - rs[i-1].t
					}
				}
				if len(libs) > 1 {
					moved++
				}
				dom, domN := int32(-1), 0
				for s := int32(0); s < 8; s++ { // ascending: the lowest site wins a tie
					if bySite[s] > domN {
						dom, domN = s, bySite[s]
					}
				}
				var meanGap time.Duration
				if len(rs) > 1 {
					meanGap = gaps / time.Duration(len(rs)-1)
				}
				if p.Writes != writes || p.Sites != len(bySite) || p.Dominant != dom ||
					p.DominantShare != float64(domN)/float64(len(rs)) || p.MeanGap != meanGap {
					t.Errorf("seg%d/p%d: view %d writes, %d sites, dominant %d (%.3f), mean gap %v; hand count %d, %d, %d (%.3f), %v",
						p.Seg, p.Page, p.Writes, p.Sites, p.Dominant, p.DominantShare, p.MeanGap,
						writes, len(bySite), dom, float64(domN)/float64(len(rs)), meanGap)
				}
			}
			if pages != len(want) {
				t.Errorf("view has %d requested pages, trace %d", pages, len(want))
			}
			if name == "migration" && moved == 0 {
				t.Error("no page has receipts at two libraries: the run never migrated a requested page")
			}
		})
	}
}
