package mirage

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestLiveChaosCoherence runs the contended-counter workload over the
// real mesh (in-process and TCP) while the injector drops, duplicates
// and delays traffic: the reliability layer must absorb it all without
// losing an update, and the recorded trace must pass the coherence
// checker — with retransmission on, zero violations.
func TestLiveChaosCoherence(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(map[bool]string{false: "inproc", true: "tcp"}[tcp], func(t *testing.T) {
			plan, err := ParseFaultPlan("seed=7; drop p=0.05; dup p=0.1; delay p=0.2 max=2ms")
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewCluster(2, Options{
				TCP:   tcp,
				Chaos: plan,
				Reliability: &Reliability{
					AckTimeout:  5 * time.Millisecond,
					MaxBackoff:  40 * time.Millisecond,
					MaxAttempts: 10,
				},
				Obs:   NewObs(),
				Check: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			id, err := c.Site(0).Shmget(0x77, 512, Create, 0o600)
			if err != nil {
				t.Fatal(err)
			}
			// Hold one attach for the final check so the workers'
			// detaches don't destroy the segment.
			hold, err := c.Site(0).Attach(id, false)
			if err != nil {
				t.Fatal(err)
			}
			defer hold.Detach()
			const perSite = 40
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				seg, err := c.Site(i).Attach(id, false)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer seg.Detach()
					for k := 0; k < perSite; k++ {
						for {
							_, err := seg.AddUint32(0, 1)
							if err == nil {
								break
							}
							if !errors.Is(err, ErrUnreachable) {
								t.Errorf("increment: %v", err)
								return
							}
							time.Sleep(10 * time.Millisecond)
						}
					}
				}()
			}
			wg.Wait()

			v, err := hold.Uint32(0)
			if err != nil {
				t.Fatal(err)
			}
			if v != 2*perSite {
				t.Fatalf("final counter = %d, want %d (lost updates under chaos)", v, 2*perSite)
			}
			st, ok := c.ChaosStats()
			if !ok || st.Decisions == 0 {
				t.Fatalf("injector saw no traffic: ok=%v %+v", ok, st)
			}
			if st.Dropped == 0 {
				t.Log("note: plan dropped nothing this run")
			}

			// The whole chaotic run, recorded with op events, must
			// verify coherent: drops and duplicates may slow the
			// protocol down but never let two writers coexist or a
			// read observe a stale value.
			viols, err := c.VerifyTrace()
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range viols {
				t.Errorf("coherence violation in chaos trace: %v", v)
			}
		})
	}
}
