package load

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"mirage/internal/obs"
)

// Report accumulates one rung's outcome. Both runners feed it — the
// live runner from worker goroutines (its methods are atomic), the
// simulator from cooperative tasks. Latency is measured from the op's
// scheduled arrival, not its dequeue, so queueing delay is charged to
// the system (no coordinated omission).
type Report struct {
	admitted  atomic.Int64
	shed      atomic.Int64
	completed atomic.Int64
	errs      atomic.Int64
	hits      atomic.Int64
	qmax      atomic.Int64
	lat       *obs.Hist
}

// NewReport returns an empty report.
func NewReport() *Report { return &Report{lat: new(obs.Hist)} }

// Admit records an arrival accepted into a frontend queue.
func (r *Report) Admit() { r.admitted.Add(1) }

// Shed records an arrival dropped because its queue was full.
func (r *Report) Shed() { r.shed.Add(1) }

// ObserveQueue records a frontend queue depth sample; the rung keeps
// the high-water mark.
func (r *Report) ObserveQueue(depth int) {
	for {
		cur := r.qmax.Load()
		if int64(depth) <= cur || r.qmax.CompareAndSwap(cur, int64(depth)) {
			return
		}
	}
}

// Done records a completed request: its scheduled-arrival→completion
// latency, whether it hit (found its key), and any error.
func (r *Report) Done(lat time.Duration, hit bool, err error) {
	r.completed.Add(1)
	if lat < 0 {
		lat = 0
	}
	r.lat.Observe(int64(lat))
	if hit {
		r.hits.Add(1)
	}
	if err != nil {
		r.errs.Add(1)
	}
}

// Rung is one ladder step's scored outcome.
type Rung struct {
	// Rate is the offered arrival rate (req/s).
	Rate float64 `json:"rate"`
	// Offered counts generated arrivals (Admitted + Shed).
	Offered int64 `json:"offered"`
	// Admitted counts arrivals accepted into a queue.
	Admitted int64 `json:"admitted"`
	// Shed counts arrivals dropped at a full queue.
	Shed int64 `json:"shed"`
	// Completed counts requests that finished service.
	Completed int64 `json:"completed"`
	// Errors counts completed requests that returned an error.
	Errors int64 `json:"errors"`
	// Hits counts completed requests that found their key.
	Hits int64 `json:"hits"`
	// QueueMax is the observed queue-depth high-water mark.
	QueueMax int64 `json:"queue_max"`
	// Goodput is completions per offered second (req/s).
	Goodput float64 `json:"goodput"`
	// Latency summarizes scheduled-arrival→completion time (ns).
	Latency obs.HistSummary `json:"latency_ns"`
	// MeanLatency is the mean of the same distribution (ns).
	MeanLatency int64 `json:"mean_latency_ns"`
	// LivenessOK reports the liveness invariant: every admitted
	// request completed, and queue depth stayed within its bound.
	LivenessOK bool `json:"liveness_ok"`
}

// Rung scores the report against the spec that produced it.
func (r *Report) Rung(spec Spec) Rung {
	spec = spec.WithDefaults()
	g := Rung{
		Rate:      spec.Rate,
		Admitted:  r.admitted.Load(),
		Shed:      r.shed.Load(),
		Completed: r.completed.Load(),
		Errors:    r.errs.Load(),
		Hits:      r.hits.Load(),
		QueueMax:  r.qmax.Load(),
		Latency:   r.lat.Summary(),
	}
	g.Offered = g.Admitted + g.Shed
	if secs := spec.Duration.Seconds(); secs > 0 {
		g.Goodput = float64(g.Completed) / secs
	}
	g.MeanLatency = int64(r.lat.Mean())
	g.LivenessOK = g.Admitted == g.Completed && g.QueueMax <= int64(spec.QueueCap)
	return g
}

// Saturated reports whether a rung shows saturation: shed arrivals, a
// broken liveness invariant, or goodput below 90% of what was actually
// offered (Offered/Duration, so a short stream is judged against
// itself, not the nominal rate).
func (g Rung) Saturated(spec Spec) bool {
	spec = spec.WithDefaults()
	if g.Shed > 0 || !g.LivenessOK {
		return true
	}
	offered := float64(g.Offered) / spec.Duration.Seconds()
	return g.Goodput < 0.9*offered
}

// Knee returns the index of the first saturated rung in ladder order,
// or -1 if every rung kept up. The rung before the knee is the highest
// sustainable rate the ladder demonstrated.
func Knee(rungs []Rung, spec Spec) int {
	for i, g := range rungs {
		if g.Saturated(spec) {
			return i
		}
	}
	return -1
}

// FirstSLOViolation returns the index of the first rung whose p99
// exceeds the SLO, or -1 if none does.
func FirstSLOViolation(rungs []Rung, slo time.Duration) int {
	for i, g := range rungs {
		if g.Latency.P99 > int64(slo) {
			return i
		}
	}
	return -1
}

// WriteTable renders a ladder as an aligned table.
func WriteTable(w io.Writer, rungs []Rung) {
	fmt.Fprintf(w, "%9s %9s %7s %9s %9s %6s %10s %10s %10s %5s %5s\n",
		"rate", "offered", "shed", "completed", "goodput", "qmax", "p50", "p99", "p999", "errs", "live")
	for _, g := range rungs {
		fmt.Fprintf(w, "%9.0f %9d %7d %9d %9.0f %6d %10v %10v %10v %5d %5v\n",
			g.Rate, g.Offered, g.Shed, g.Completed, g.Goodput, g.QueueMax,
			time.Duration(g.Latency.P50), time.Duration(g.Latency.P99), time.Duration(g.Latency.P999),
			g.Errors, g.LivenessOK)
	}
}
