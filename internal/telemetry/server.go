package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// Health is the /healthz payload: a point-in-time view of the serving
// rank. Fields the caller does not know stay zero.
type Health struct {
	// Status is "ok" or "degraded"; the HTTP code follows it.
	Status string `json:"status"`
	// Rank and Size locate this process in the world.
	Rank int `json:"rank"`
	Size int `json:"size"`
	// Epoch is the recovery epoch the fabric was booted with.
	Epoch int `json:"epoch"`
	// Degraded is true when the fabric shrank after losing ranks;
	// WorldSize is the current (possibly shrunken) world size. A
	// shrunken-but-serving fabric keeps Status "ok" — degraded mode is
	// an operating state, not an outage, and only a fabric that cannot
	// serve flips Status (and with it the HTTP code).
	Degraded  bool `json:"degraded"`
	WorldSize int  `json:"world_size,omitempty"`
	// Jobs this rank finished and failed so far.
	JobsDone   int64 `json:"jobs_done"`
	JobsFailed int64 `json:"jobs_failed"`
	// Detail carries a human-readable reason when degraded.
	Detail string `json:"detail,omitempty"`
}

// ServerOptions configure the telemetry HTTP server. All fields are
// optional; a zero options serves a bare registry.
type ServerOptions struct {
	// Health supplies the /healthz payload on each request. Nil serves
	// {"status":"ok"}.
	Health func() Health
	// Trace supplies the last-N trace events for /debug/trace, newest
	// last, rendered as JSONL so the output pipes straight into
	// sdstrace. Nil returns 404 from /debug/trace.
	Trace func() []json.RawMessage
	// Spans supplies the reconstructed span list for /debug/spans —
	// typically trace.BuildSpans over the process's ring buffer. The
	// returned value is rendered as indented JSON. Nil returns 404.
	Spans func() any
}

// Server serves the telemetry plane over HTTP: /metrics (Prometheus
// text), /healthz (JSON liveness), /debug/pprof/* and /debug/trace.
type Server struct {
	reg  *Registry
	opts ServerOptions
	ln   net.Listener
	srv  *http.Server

	scrapes   atomic.Int64
	scrapeDur *Histogram
}

// NewServer creates a telemetry server bound to addr (host:port; an
// empty host binds all interfaces, port 0 picks a free port) and starts
// serving immediately. Close releases the listener.
func NewServer(addr string, reg *Registry, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{
		reg:       reg,
		opts:      opts,
		ln:        ln,
		scrapeDur: reg.Histogram("sds_telemetry_scrape_seconds", "Latency of /metrics scrapes.", DefaultLatencyBuckets()),
	}
	reg.CounterFunc("sds_telemetry_scrapes_total", "Number of /metrics scrapes served.", func() float64 { return float64(s.scrapes.Load()) })
	s.srv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down, waiting briefly for in-flight scrapes.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// Handler returns the telemetry mux (exposed for in-proc tests).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	mux.HandleFunc("/debug/spans", s.handleSpans)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.scrapes.Add(1)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := s.reg.WriteTo(w); err != nil {
		return // client went away mid-scrape
	}
	s.scrapeDur.Observe(time.Since(start).Seconds())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{Status: "ok"}
	if s.opts.Health != nil {
		h = s.opts.Health()
	}
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(h) //nolint:errcheck // best-effort response body
}

func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	if s.opts.Spans == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.opts.Spans()) //nolint:errcheck // best-effort response body
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.opts.Trace == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	for _, ev := range s.opts.Trace() {
		w.Write(ev)           //nolint:errcheck // best-effort
		w.Write([]byte{'\n'}) //nolint:errcheck
	}
}
