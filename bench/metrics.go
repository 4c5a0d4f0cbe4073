package main

// metricDef is one row of BENCHMARK.json. The tables below are the
// single source: `-manifest` prints BENCHMARK.json from them and a test
// keeps the committed file equal to that output.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is the length of one run's timed window in BENCHMARK.json.
const runSeconds = 12

// e2eMetrics are what a caller of the library sees, measured with
// observability off. Every workload has all of them and none can be
// zero. Bound is the share of the parent's median by which the metric
// may worsen; the values are three times the run-to-run spread seen on
// the 2-core CI-class host (see README.md), capped at the 0.25 the
// benchmark contract allows.
var e2eMetrics = []metricDef{
	{"ops_per_s", "1/s", higher, 0.25},
	{"read_ns_p50", "ns", lower, 0.25},
	{"write_ns_p50", "ns", lower, 0.25},
	{"heap_live_mb", "MB", lower, 0.2},
	{"setup_s", "s", lower, 0.25},
}

// perLayerMetrics are reported by the traced run (`--trace 1`). The
// name's prefix is the repo module the metric prices. Every time among
// them is a probe: measured the same way whatever the workload, so it
// is never a constant. The workload's own traced figures are counts
// and ratios, and read 0 where they do not apply (no store, no Δ
// window).
var perLayerMetrics = []metricDef{
	// mirage: Segment, Site, the node actor loop.
	{"mirage.call_rtt_ns", "ns", lower, 0},
	{"mirage.call_allocs", "1/op", lower, 0},
	{"mirage.attach_us", "us", lower, 0},
	{"mirage.hit_scaling", "ratio", higher, 0},
	{"mirage.allocs_per_op", "1/op", lower, 0},
	{"mirage.min_share", "ratio", higher, 0},
	{"mirage.mean_ops_per_s", "1/s", higher, 0},
	{"mirage.read_ns_p99", "ns", lower, 0},
	{"mirage.write_ns_p99", "ns", lower, 0},
	// core: the protocol engine over a synchronous stub Env.
	{"core.check_access_ns", "ns", lower, 0},
	{"core.upgrade_cpu_ns", "ns", lower, 0},
	{"core.write_fault_cpu_ns", "ns", lower, 0},
	{"core.read_fault_cpu_ns", "ns", lower, 0},
	{"core.inval5_cpu_ns", "ns", lower, 0},
	{"core.fault_allocs", "1/op", lower, 0},
	{"core.msgs_per_upgrade", "count", lower, 0},
	{"core.msgs_per_write_fault", "count", lower, 0},
	{"core.msgs_per_read_fault", "count", lower, 0},
	{"core.faults_per_op", "1/op", lower, 0},
	{"core.pages_per_op", "1/op", lower, 0},
	{"core.handoffs_per_s", "1/s", higher, 0},
	{"core.busy_per_handoff", "ratio", lower, 0},
	{"core.retries_per_handoff", "ratio", lower, 0},
	{"core.window_wait_share", "ratio", lower, 0},
	// mmu: page table and copyset.
	{"mmu.check_ns", "ns", lower, 0},
	{"mmu.install512_ns", "ns", lower, 0},
	{"mmu.install4096_ns", "ns", lower, 0},
	{"mmu.copyset_add_ns", "ns", lower, 0},
	{"mmu.copyset_foreach5_ns", "ns", lower, 0},
	{"mmu.copyset_foreach1000_ns", "ns", lower, 0},
	{"mmu.copyset_wire1000_ns", "ns", lower, 0},
	// wire: the codec.
	{"wire.encode_short_ns", "ns", lower, 0},
	{"wire.decode_short_ns", "ns", lower, 0},
	{"wire.encode_page512_ns", "ns", lower, 0},
	{"wire.decode_page512_ns", "ns", lower, 0},
	{"wire.encode_page4096_ns", "ns", lower, 0},
	{"wire.decode_page4096_ns", "ns", lower, 0},
	{"wire.encode_inval1000_ns", "ns", lower, 0},
	{"wire.decode_inval1000_ns", "ns", lower, 0},
	{"wire.allocs_per_roundtrip", "1/op", lower, 0},
	// transport: the in-process and TCP meshes.
	{"transport.inproc_rtt_ns", "ns", lower, 0},
	{"transport.tcp_rtt_short_ns", "ns", lower, 0},
	{"transport.tcp_rtt_page4096_ns", "ns", lower, 0},
	{"transport.tcp_short_msgs_per_s", "1/s", higher, 0},
	{"transport.tcp_page4096_mb_per_s", "MB/s", higher, 0},
	{"transport.tcp_allocs_per_msg", "1/op", lower, 0},
	{"transport.msgs_per_op", "1/op", lower, 0},
	{"transport.wire_bytes_per_op", "B/op", lower, 0},
	{"transport.frames_per_flush", "ratio", higher, 0},
	// app: the store over an in-memory fake segment, and live counters.
	{"app.get_ns", "ns", lower, 0},
	{"app.put_ns", "ns", lower, 0},
	{"app.cas_ns", "ns", lower, 0},
	{"app.seg_calls_per_get", "count", lower, 0},
	{"app.seg_calls_per_put", "count", lower, 0},
	{"app.hit_ratio", "ratio", higher, 0},
	{"app.conflicts_per_op", "1/op", lower, 0},
	{"app.faults_per_op", "1/op", lower, 0},
	// obs: what tracing costs.
	{"obs.overhead_pct", "%", lower, 0},
	{"obs.events_per_op", "1/op", lower, 0},
	{"obs.dropped_events", "count", lower, 0},
	// phase: where a faulting op's time goes, rebuilt from the events of
	// a short traced pass over the fault-inproc and the fault-tcp cycle.
	{"phase.inproc_span_ns", "ns", lower, 0},
	{"phase.inproc_request_ns", "ns", lower, 0},
	{"phase.inproc_hop_ns", "ns", lower, 0},
	{"phase.inproc_hops_per_op", "count", lower, 0},
	{"phase.inproc_library_ns", "ns", lower, 0},
	{"phase.inproc_resume_ns", "ns", lower, 0},
	{"phase.inproc_residual_ns", "ns", lower, 0},
	{"phase.inproc_clock_slack_ns", "ns", lower, 0},
	{"phase.tcp_span_ns", "ns", lower, 0},
	{"phase.tcp_request_ns", "ns", lower, 0},
	{"phase.tcp_hop_ns", "ns", lower, 0},
	{"phase.tcp_hops_per_op", "count", lower, 0},
	{"phase.tcp_library_ns", "ns", lower, 0},
	{"phase.tcp_resume_ns", "ns", lower, 0},
	{"phase.tcp_residual_ns", "ns", lower, 0},
	{"phase.tcp_clock_slack_ns", "ns", lower, 0},
	// host: calibration, so records from two machines can be normalised.
	{"host.nproc", "count", higher, 0},
	{"host.memcpy_gb_per_s", "GB/s", higher, 0},
	{"host.atomic_add_ns", "ns", lower, 0},
	{"host.chan_pingpong_ns", "ns", lower, 0},
	{"host.cond_pingpong_ns", "ns", lower, 0},
	{"host.time_now_ns", "ns", lower, 0},
	{"host.tcp_loopback_rtt_ns", "ns", lower, 0},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestLoad `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []layerDef     `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// layerDef is a per-layer row: the same as metricDef without a bound.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   e2eMetrics,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.name, w.why})
	}
	for _, d := range perLayerMetrics {
		m.PerLayer = append(m.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	return m
}
