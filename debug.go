package mirage

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"

	"mirage/internal/obs"
)

// debugServer serves the cluster's observability state over HTTP when
// Options.DebugAddr is set:
//
//	/debug/obs        metrics registry snapshot as JSON
//	/debug/obs/trace  the in-memory trace buffer as schema-v2 JSONL
//	/debug/vars       the process-wide expvar map
//	/debug/pprof/...  the standard runtime profiles
//
// The obs endpoints read the shared registry and buffer directly — no
// engine coordination — so scraping a busy cluster never perturbs the
// protocol beyond the atomic loads the snapshot takes.
type debugServer struct {
	ln  net.Listener
	srv *http.Server
}

func startDebugServer(addr string, o *Obs, sites int) (*debugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if o.Metrics == nil {
			_ = enc.Encode(struct{}{})
			return
		}
		_ = enc.Encode(o.Metrics.Snapshot())
	})
	mux.HandleFunc("/debug/obs/trace", func(w http.ResponseWriter, r *http.Request) {
		buf := o.Buffer()
		if buf == nil {
			http.Error(w, "tracing not enabled: the cluster's Obs has no trace buffer", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = obs.WriteJSONL(w, obs.NewHeader(obs.ClockWall, sites), buf.Events())
	})
	// Use the package handlers rather than relying on their init-time
	// registration on http.DefaultServeMux: this mux serves only what
	// it names.
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return &debugServer{ln: ln, srv: srv}, nil
}

func (d *debugServer) addr() string { return d.ln.Addr().String() }

func (d *debugServer) close() error {
	err := d.srv.Close()
	if err == http.ErrServerClosed {
		err = nil
	}
	return err
}
