package mirage

import (
	"errors"
	"testing"
	"time"

	"mirage/internal/obs"
)

// TestNegativeDeltaRejected pins the Δ-validation bugfix at the public
// surface: a negative SetSegmentDelta is rejected with ErrNegativeDelta
// (a negative default window is TestClusterOptionsContract's row).
func TestNegativeDeltaRejected(t *testing.T) {
	c, err := NewCluster(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Site(0).Shmget(7, 512, Create, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Site(0).SetSegmentDelta(id, -time.Second); !errors.Is(err, ErrNegativeDelta) {
		t.Fatalf("SetSegmentDelta(-1s) = %v, want ErrNegativeDelta", err)
	}
	if err := c.Site(0).SetSegmentDelta(id, 5*time.Millisecond); err != nil {
		t.Fatalf("SetSegmentDelta(5ms) = %v", err)
	}
}

// TestLiveLibraryFailover runs the library-crash scenario over the real
// mesh (in-process and TCP): the injector fail-stops the library site
// mid-run, a surviving holder's next request elects the successor, and
// post-crash accesses succeed. The wall-clock multi-epoch trace must
// verify coherent.
func TestLiveLibraryFailover(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(map[bool]string{false: "inproc", true: "tcp"}[tcp], func(t *testing.T) {
			plan, err := ParseFaultPlan("seed=3; crash site=0 from=700ms")
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewCluster(3, Options{
				TCP:   tcp,
				Chaos: plan,
				Reliability: &Reliability{
					AckTimeout:  5 * time.Millisecond,
					MaxBackoff:  40 * time.Millisecond,
					MaxAttempts: 6,
				},
				Failover: &Failover{},
				Obs:      NewObs(),
				Check:    true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			id, err := c.Site(0).Shmget(0x5a, 512, Create, 0o600)
			if err != nil {
				t.Fatal(err)
			}
			home, err := c.Site(0).Attach(id, false)
			if err != nil {
				t.Fatal(err)
			}
			defer home.Detach()
			if err := home.SetUint32(0, 42); err != nil {
				t.Fatal(err)
			}

			surv, err := c.Site(1).Attach(id, false)
			if err != nil {
				t.Fatal(err)
			}
			defer surv.Detach()
			if v, err := surv.Uint32(0); err != nil || v != 42 {
				t.Fatalf("pre-crash read = %d, %v; want 42", v, err)
			}
			other, err := c.Site(2).Attach(id, false)
			if err != nil {
				t.Fatal(err)
			}
			defer other.Detach()

			time.Sleep(1200 * time.Millisecond) // the library is now dead

			// The surviving holder's write rides through failover; allow
			// retries for wall-clock scheduling slop but demand prompt
			// overall convergence.
			deadline := time.Now().Add(15 * time.Second)
			for {
				err = surv.SetUint32(0, 100)
				if err == nil {
					break
				}
				if !errors.Is(err, ErrUnreachable) {
					t.Fatalf("post-crash write: %v", err)
				}
				if time.Now().After(deadline) {
					t.Fatal("post-crash write never succeeded: no takeover")
				}
				time.Sleep(50 * time.Millisecond)
			}
			for {
				v, err := other.Uint32(0)
				if err == nil {
					if v != 100 {
						t.Fatalf("post-failover read = %d, want 100", v)
					}
					break
				}
				if !errors.Is(err, ErrUnreachable) {
					t.Fatalf("post-failover read: %v", err)
				}
				if time.Now().After(deadline) {
					t.Fatal("post-failover read never succeeded")
				}
				time.Sleep(50 * time.Millisecond)
			}

			st := c.Site(1).Stats()
			if st.Failovers == 0 || st.Recoveries == 0 {
				t.Fatalf("successor stats %+v, want a failover trigger and a completed recovery", st)
			}
			var sawFailover, sawRecover bool
			for _, ev := range c.Obs().Buffer().Events() {
				switch ev.Type {
				case obs.EvFailover:
					sawFailover = true
				case obs.EvRecover:
					sawRecover = true
				}
			}
			if !sawFailover || !sawRecover {
				t.Fatalf("trace missing failover evidence: failover=%v recover=%v", sawFailover, sawRecover)
			}
			viols, err := c.VerifyTrace()
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range viols {
				t.Errorf("coherence violation in failover trace: %v", v)
			}
		})
	}
}
