package ipc

import (
	"reflect"
	"testing"
	"time"

	"mirage/internal/chaos"
	"mirage/internal/core"
	"mirage/internal/mem"
	"mirage/internal/obs"
)

// statsCounters pins core.Stats as a view of the obs vocabulary: every
// field, and the counter it reports.
var statsCounters = map[string]obs.Counter{
	"ReadFaults": obs.CReadFault, "WriteFaults": obs.CWriteFault,
	"RequestsSent": obs.CRequestSent, "PagesSent": obs.CPageSent, "PagesReceived": obs.CPageRecv,
	"Upgrades": obs.CUpgrade, "Downgrades": obs.CDowngrade,
	"InvalsReceived": obs.CInvalRecv, "InvalOrders": obs.CInvalOrder, "BusyReplies": obs.CBusyReply,
	"Retries": obs.CRetry, "Already": obs.CAlready, "WindowWait": obs.CWindowWait, "Dropped": obs.CDropped,
	"Retransmits": obs.CRetransmit, "DupDrops": obs.CDupDrop, "GaveUp": obs.CGaveUp,
	"Denied": obs.CDenied, "Degraded": obs.CDegraded, "Stale": obs.CStale, "Lost": obs.CLost,
	"Reissued":  obs.CReissued,
	"Failovers": obs.CFailover, "Recoveries": obs.CRecovery, "StaleEpoch": obs.CStaleEpoch,
	"Migrations": obs.CMigration, "MigrationsRefused": obs.CMigrationRefused,
	"Appends": obs.CAppend, "ReplCommits": obs.CReplCommit,
	"Elections":  obs.CElect,
	"DeltaGrows": obs.CDeltaGrow, "DeltaShrinks": obs.CDeltaShrink,
}

// noStatsField is the rest of the vocabulary: what the engine counts
// for the registry alone, and what other layers count.
var noStatsField = []obs.Counter{
	// internal/core: message flow and the library's side of a cycle.
	obs.CMsgSent, obs.CMsgRecv, obs.CWireByte, obs.CGrantCycle, obs.CInvalSent,
	obs.CInvalAcked, obs.CDeltaDenial, obs.CInvalFanout, obs.CRelay,
	// internal/chaos, internal/transport, internal/netsim, internal/app.
	obs.CChaosDrop, obs.CChaosDup, obs.CChaosDelay, obs.CChaosPartition,
	obs.CFlushBatch, obs.CFlushFrame, obs.CFlushByte, obs.CTCPDecodeError, obs.CTCPCorruptStream,
	obs.CTCPWriteError, obs.CTCPRedial, obs.CNetDelivered, obs.CNetByte,
	obs.CAppOp, obs.CAppHit, obs.CAppMiss, obs.CAppConflict,
}

// TestStatsIsAViewOfTheRegistry runs every engine layer at once under a
// lossy fabric and a library crash, then asks of every site and every
// Stats field that it equals the registry's counter. A Stats field
// without a row above, or a counter in neither list, fails.
func TestStatsIsAViewOfTheRegistry(t *testing.T) {
	placed := map[obs.Counter]bool{}
	for _, c := range statsCounters {
		placed[c] = true
	}
	for _, c := range noStatsField {
		if placed[c] {
			t.Errorf("counter %v is listed twice", c)
		}
		placed[c] = true
	}
	for _, c := range obs.Counters() {
		if !placed[c] {
			t.Errorf("counter %v is neither a Stats field nor listed as having none", c)
		}
	}

	plan, err := chaos.Parse("seed=9; drop p=0.05; dup p=0.1; delay p=0.2 max=5ms; crash site=0 from=1500ms")
	if err != nil {
		t.Fatal(err)
	}
	const sites = 4
	o := obs.New()
	c := NewCluster(sites, Config{
		Delta: 120 * time.Millisecond,
		Chaos: plan,
		Engine: core.Options{
			Reliability: testRel(),
			Failover:    &core.Failover{RecoverTimeout: 500 * time.Millisecond, Replicas: 2},
			AutoDelta:   &core.AutoDelta{},
			Obs:         o,
		},
	})
	c.Site(0).Spawn("lib", 0, func(p *Proc) {
		id, err := p.Shmget(7, 512, mem.Create, rw)
		if err != nil {
			t.Error(err)
			return
		}
		if h, err := p.Shmat(id, false); err == nil {
			h.SetUint32(0, 0)
		}
		p.Sleep(time.Hour) // into its crash window, attach held
	})
	for i := 1; i < sites; i++ {
		c.Site(i).Spawn("inc", 0, func(p *Proc) {
			h := attachRetry(t, p)
			if h == nil {
				return
			}
			for k := 0; k < 40; k++ {
				readRetry(t, p, h, 0) // readers gather, then one of them upgrades
				addRetry(t, p, h, 0)
				p.Sleep(20 * time.Millisecond)
			}
			p.Sleep(time.Hour)
		})
	}
	c.RunFor(2 * time.Minute)

	moved := map[string]bool{}
	for i := 0; i < sites; i++ {
		st := reflect.ValueOf(c.Site(i).Eng.Stats())
		for f := 0; f < st.NumField(); f++ {
			name := st.Type().Field(f).Name
			ctr, ok := statsCounters[name]
			if !ok {
				t.Fatalf("Stats.%s has no counter: add it to the obs vocabulary and to Engine.Stats", name)
			}
			got, want := st.Field(f).Int(), o.Metrics.Get(i, ctr)
			if got != want {
				t.Errorf("site %d: Stats.%s = %d, registry %v = %d", i, name, got, ctr, want)
			}
			if got != 0 {
				moved[name] = true
			}
		}
	}
	// The run has to have exercised the layers for the equality to mean
	// anything.
	for _, name := range []string{"WriteFaults", "PagesSent", "Upgrades", "InvalsReceived", "InvalOrders",
		"BusyReplies", "Retries", "WindowWait", "Dropped", "Retransmits", "DupDrops", "GaveUp", "Failovers",
		"Recoveries", "Appends", "ReplCommits", "Elections", "DeltaShrinks"} {
		if !moved[name] {
			t.Errorf("Stats.%s stayed zero at every site", name)
		}
	}
	t.Logf("%d of %d Stats fields moved", len(moved), len(statsCounters))
}
