package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Handler serves the exposition endpoints for a registry:
//
//	GET /metrics         plain text, one "name value" line per instrument
//	                     (histograms expand to _count/_mean/_p50/_p99/
//	                     _p999/_max rows); ?format=json returns the
//	                     Snapshot as JSON
//	GET /health          {"status":"ok","uptime_sec":...}
//	GET /debug/pprof/    the net/http/pprof suite (profile, heap, trace...)
//
// The handler is read-only over the registry: scraping never perturbs the
// instrumented process beyond the atomic loads of a Snapshot.
func Handler(reg *Registry) http.Handler {
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s := reg.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(s)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, c := range s.Counters {
			fmt.Fprintf(w, "%s %d\n", c.Name, c.Value)
		}
		for _, g := range s.Gauges {
			fmt.Fprintf(w, "%s %s\n", g.Name, strconv.FormatFloat(g.Value, 'g', -1, 64))
		}
		for _, h := range s.Histograms {
			fmt.Fprintf(w, "%s_count %d\n", h.Name, h.Count)
			fmt.Fprintf(w, "%s_mean %s\n", h.Name, strconv.FormatFloat(h.Mean, 'g', -1, 64))
			fmt.Fprintf(w, "%s_p50 %d\n", h.Name, h.P50)
			fmt.Fprintf(w, "%s_p99 %d\n", h.Name, h.P99)
			fmt.Fprintf(w, "%s_p999 %d\n", h.Name, h.P999)
			fmt.Fprintf(w, "%s_max %d\n", h.Name, h.Max)
		}
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"uptime_sec\":%.3f}\n", time.Since(start).Seconds())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running exposition endpoint (ListenAndServe).
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// ListenAndServe mounts Handler(reg) on a TCP address and serves it in the
// background — the implementation of the cmd binaries' -telemetry-addr
// flag. Close stops it.
func ListenAndServe(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(reg)}}
	go s.srv.Serve(ln)
	return s, nil
}

// Open wires the cmd binaries' -telemetry-addr and -journal flags: a
// non-empty addr serves a fresh registry there (ListenAndServe) and logs the
// bound address as a "telemetry" event on logger; a non-empty journalPath
// opens the journal (OpenJournal). An empty argument leaves its result nil,
// which every instrumented path treats as off. closeAll releases whatever
// was opened; an error names the flag at fault and leaves nothing open.
func Open(addr, journalPath string, logger *Logger) (reg *Registry, journal *Journal, closeAll func(), err error) {
	var srv *Server
	if addr != "" {
		reg = NewRegistry()
		if srv, err = ListenAndServe(addr, reg); err != nil {
			return nil, nil, nil, fmt.Errorf("-telemetry-addr: %w", err)
		}
		logger.Event("telemetry", "addr", srv.Addr())
	}
	if journalPath != "" {
		if journal, err = OpenJournal(journalPath); err != nil {
			if srv != nil {
				srv.Close()
			}
			return nil, nil, nil, fmt.Errorf("-journal: %w", err)
		}
	}
	return reg, journal, func() {
		journal.Close()
		if srv != nil {
			srv.Close()
		}
	}, nil
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the endpoint.
func (s *Server) Close() error { return s.srv.Close() }
