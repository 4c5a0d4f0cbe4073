package mirage_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"mirage"
	"mirage/internal/obs"
)

// driveSharing runs a small cross-site sharing workload: site 0 writes,
// site 1 reads and writes back, enough to move pages both ways.
func driveSharing(t *testing.T, c *mirage.Cluster) {
	t.Helper()
	s0 := c.Site(0)
	id, err := s0.Shmget(mirage.IPCPrivate, 4096, mirage.Create, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s0.Attach(id, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Site(1).Attach(id, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := a.SetUint32(0, uint32(i)); err != nil {
			t.Fatal(err)
		}
		if v, err := b.Uint32(0); err != nil || v != uint32(i) {
			t.Fatalf("round %d: read %d, %v", i, v, err)
		}
		if _, err := b.AddUint32(4, 1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLiveTracedRun is the live-mode half of the observability
// acceptance criteria: a two-node cluster with an Obs attached produces
// a trace that summarizes and Chrome-exports, and serves its metrics
// and trace over the debug HTTP endpoints.
func TestLiveTracedRun(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(map[bool]string{false: "inproc", true: "tcp"}[tcp], func(t *testing.T) {
			o := mirage.NewObs()
			c, err := mirage.NewCluster(2, mirage.Options{
				Delta:     5 * time.Millisecond,
				TCP:       tcp,
				Obs:       o,
				Check:     true,
				DebugAddr: "127.0.0.1:0",
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			driveSharing(t, c)

			// Counters: the workload must have produced cross-site traffic.
			for _, want := range []obs.Counter{
				obs.CReadFault, obs.CWriteFault, obs.CPageSent, obs.CGrantCycle, obs.CMsgSent,
			} {
				if o.Metrics.Total(want) == 0 {
					t.Errorf("counter %v stayed zero", want)
				}
			}
			if tcp && o.Metrics.Total(obs.CFlushBatch) == 0 {
				t.Error("TCP flush batches not counted")
			}

			// Trace: summarize and Chrome-export from the live event buffer.
			events := o.Buffer().Events()
			if len(events) == 0 {
				t.Fatal("no events traced")
			}
			sum := obs.Summarize(events)
			if sum.ByType[obs.EvFault] == 0 || sum.ByType[obs.EvGrantStart] == 0 {
				t.Errorf("summary missing faults or grants: %+v", sum.ByType)
			}
			var chrome bytes.Buffer
			if err := obs.WriteChrome(&chrome, obs.NewHeader(obs.ClockWall, 2), events); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
				t.Fatalf("chrome export is not valid JSON: %v", err)
			}
			if len(doc.TraceEvents) == 0 {
				t.Fatal("chrome export has no events")
			}

			// Debug HTTP: metrics snapshot and JSONL trace.
			base := "http://" + c.DebugAddr()
			var snap obs.Snapshot
			getJSON(t, base+"/debug/obs", &snap)
			if snap.Totals["read_faults"] == 0 {
				t.Errorf("/debug/obs read_faults = 0; totals: %v", snap.Totals)
			}
			resp, err := http.Get(base + "/debug/obs/trace")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			hdr, traced, err := obs.ReadJSONL(resp.Body)
			if err != nil {
				t.Fatalf("/debug/obs/trace did not parse: %v", err)
			}
			if hdr.Clock != obs.ClockWall || hdr.Sites != 2 {
				t.Errorf("trace header = %+v, want wall clock, 2 sites", hdr)
			}
			if len(traced) == 0 {
				t.Error("/debug/obs/trace returned no events")
			}
			var vars map[string]json.RawMessage
			getJSON(t, base+"/debug/vars", &vars)

			// With Options.Check the trace carries per-access op events
			// and the whole run must verify coherent: the checker sees
			// every read observe the latest write it should.
			if obs.Summarize(events).ByType[obs.EvRead] == 0 {
				t.Error("Options.Check produced no op events")
			}
			viols, err := c.VerifyTrace()
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range viols {
				t.Errorf("coherence violation in live trace: %v", v)
			}
		})
	}
}

// TestLiveFaultLatencyRecorded: in live mode every access that faults
// is one fault_latency_ns sample, as it is in the simulator. Two sites
// write one unwindowed page in turn, so each write after the first is
// exactly one remote fault, and the median resolves below a millisecond.
func TestLiveFaultLatencyRecorded(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(map[bool]string{false: "inproc", true: "tcp"}[tcp], func(t *testing.T) {
			o := mirage.NewObs()
			c, err := mirage.NewCluster(2, mirage.Options{TCP: tcp, Obs: o})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			id, err := c.Site(0).Shmget(mirage.IPCPrivate, 512, mirage.Create, 0o600)
			if err != nil {
				t.Fatal(err)
			}
			a, err := c.Site(0).Attach(id, false)
			if err != nil {
				t.Fatal(err)
			}
			b, err := c.Site(1).Attach(id, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.SetUint32(0, 0); err != nil { // resident at its creator: no fault
				t.Fatal(err)
			}
			const rounds = 50
			for i := uint32(1); i <= rounds; i++ {
				if err := b.SetUint32(0, i); err != nil {
					t.Fatal(err)
				}
				if err := a.SetUint32(0, i); err != nil {
					t.Fatal(err)
				}
			}
			h := o.Metrics.Hist(obs.HFaultLatency)
			if h.Count() != 2*rounds {
				t.Fatalf("fault_latency_ns has %d samples after %d remote faults", h.Count(), 2*rounds)
			}
			if h.Max() <= 0 || h.Max() > int64(10*time.Second) {
				t.Errorf("fault_latency_ns max = %v", time.Duration(h.Max()))
			}
			// A live fault takes microseconds; the histogram must see
			// that, not a millisecond floor every sample rounds up to.
			if p50 := time.Duration(h.Quantile(0.5)); p50 >= time.Millisecond {
				t.Errorf("fault_latency_ns p50 ≤ %v, want under 1ms", p50)
			}
			if wf := c.Site(0).Stats().WriteFaults + c.Site(1).Stats().WriteFaults; wf < 2*rounds {
				t.Errorf("engines saw %d write faults, want at least %d", wf, 2*rounds)
			}
		})
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	if err := json.Unmarshal(body, into); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, body)
	}
}

// TestDebugAddrRequiresObs pins the constructor validation.
func TestDebugAddrRequiresObs(t *testing.T) {
	if _, err := mirage.NewCluster(2, mirage.Options{DebugAddr: "127.0.0.1:0"}); err == nil {
		t.Fatal("NewCluster accepted DebugAddr without Obs")
	}
}

// TestCheckRequiresTracer pins the Options.Check validation: op events
// go to the trace, so there must be a tracer to receive them.
func TestCheckRequiresTracer(t *testing.T) {
	if _, err := mirage.NewCluster(2, mirage.Options{Check: true}); err == nil {
		t.Fatal("NewCluster accepted Check without Obs")
	}
	o := &mirage.Obs{} // no tracer
	if _, err := mirage.NewCluster(2, mirage.Options{Check: true, Obs: o}); err == nil {
		t.Fatal("NewCluster accepted Check with a tracerless Obs")
	}
}

// TestVerifyTraceAPI exercises the package-level checker entry on a
// hand-rolled violating trace, and the Cluster method's error paths.
func TestVerifyTraceAPI(t *testing.T) {
	bad := []mirage.TraceEvent{
		{Type: obs.EvPageState, Seg: 1, Site: 0, Arg: 2},
		{Type: obs.EvPageState, Seg: 1, Site: 1, Cycle: 1, Arg: 2},
	}
	viols := mirage.VerifyTrace(mirage.CheckConfig{Sites: 2}, bad)
	if len(viols) == 0 {
		t.Fatal("VerifyTrace missed a two-writer trace")
	}
	c, err := mirage.NewCluster(2, mirage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.VerifyTrace(); err == nil {
		t.Fatal("Cluster.VerifyTrace should fail without Obs")
	}
}

// TestObsOffByDefault: without an Obs, a cluster runs with a nil sink
// end to end and Cluster.Obs reports that.
func TestObsOffByDefault(t *testing.T) {
	c, err := mirage.NewCluster(2, mirage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	driveSharing(t, c)
	if c.Obs() != nil {
		t.Fatal("Obs() non-nil without Options.Obs")
	}
	if c.DebugAddr() != "" {
		t.Fatalf("DebugAddr() = %q without a debug server", c.DebugAddr())
	}
}
