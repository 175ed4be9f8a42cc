package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Server exposes one registry over HTTP for operators and scrapers:
//
//	GET /metrics   Prometheus text exposition of the registry
//	GET /healthz   200 "ok" while healthy, 503 "shutting down" after
//	               SetHealthy(false) — the readiness flip a supervisor
//	               watches during graceful shutdown
//	GET /progress  JSON snapshot from the progress callback
//
// A Server starts healthy. It is created only when the operator asks
// for a listen address; a run without one takes no listener, spawns no
// goroutine and touches no registry.
type Server struct {
	reg      *Registry
	progress func() any
	healthy  atomic.Bool

	srv *http.Server
	ln  net.Listener
}

// NewServer builds a server over reg. progress, when non-nil, supplies
// the /progress payload; it must be safe to call from handler
// goroutines.
func NewServer(reg *Registry, progress func() any) *Server {
	s := &Server{reg: reg, progress: progress}
	s.healthy.Store(true)
	return s
}

// SetHealthy flips the /healthz verdict; false turns the endpoint into
// 503 so load balancers and supervisors observe a shutdown in progress
// while the final work drains.
func (s *Server) SetHealthy(ok bool) { s.healthy.Store(ok) }

// handler builds the endpoint mux.
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.healthy.Load() {
			fmt.Fprintln(w, "ok")
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "shutting down")
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var payload any
		if s.progress != nil {
			payload = s.progress()
		}
		enc := json.NewEncoder(w)
		enc.Encode(payload)
	})
	return mux
}

// Start listens on addr (host:port; port 0 picks a free one) and serves
// in a background goroutine. It returns the bound address, so callers
// asking for :0 learn the real port.
func (s *Server) Start(addr string) (string, error) {
	if s.ln != nil {
		return "", fmt.Errorf("telemetry: server already started on %s", s.ln.Addr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.handler()}
	go s.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close shuts the server down gracefully, draining in-flight requests
// for up to the given timeout before closing hard. A never-started
// server closes as a no-op.
func (s *Server) Close(timeout time.Duration) error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.srv, s.ln = nil, nil
	return err
}

// ProgressSnapshot is the /progress payload: the live view of what the
// daemon is doing, combining the rebuild service's per-stripe Progress
// with the watch loop's phase and pass counts (DaemonMetrics.Progress
// assembles it).
type ProgressSnapshot struct {
	// Phase names where the daemon is in its loop: "starting",
	// "scanning" (scan + repair pass underway), "rebuilding" (repairing
	// stripes within a pass), "watching" (idle between scans), "backoff"
	// (waiting out a failure), "stopping" (graceful shutdown requested)
	// or "stopped".
	Phase string `json:"phase"`

	Scans    int `json:"scans"`    // rebuild passes started
	Rebuilds int `json:"rebuilds"` // passes that repaired damage

	// Per-stripe progress of the pass in flight (the rebuild service's
	// Progress struct, latest callback wins).
	Stripe        int `json:"stripe"`
	StripesTotal  int `json:"stripes_total"`
	StripesDone   int `json:"stripes_done"`
	ChunksRebuilt int `json:"chunks_rebuilt"`
	Percent       int `json:"percent"`
}

// ProgressTracker holds the part of the /progress snapshot no metric
// cell books: the loop's phase and the pass in flight. Producers (the
// watch daemon, the rebuild service's Progress hook) update it from the
// rebuild goroutine; HTTP handlers snapshot it concurrently.
type ProgressTracker struct {
	mu   sync.Mutex
	snap ProgressSnapshot // Scans and Rebuilds stay zero: the DaemonMetrics cells count them
}

// NewProgressTracker returns a tracker in phase "starting".
func NewProgressTracker() *ProgressTracker {
	return &ProgressTracker{snap: ProgressSnapshot{Phase: "starting"}}
}

// SetPhase records a phase transition.
func (t *ProgressTracker) SetPhase(phase string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.snap.Phase = phase
}

// Scan records the start of one scan + repair pass: the previous pass's
// per-stripe view is cleared.
func (t *ProgressTracker) Scan() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.snap = ProgressSnapshot{Phase: "scanning"}
}

// Stripe records one repaired stripe of the pass in flight; percent is
// the rebuild service's own figure (Progress.Percent).
func (t *ProgressTracker) Stripe(stripe, done, total, chunks, percent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.snap = ProgressSnapshot{Phase: "rebuilding", Stripe: stripe, StripesDone: done, StripesTotal: total, ChunksRebuilt: chunks, Percent: percent}
}

// Snapshot returns a copy of the current state.
func (t *ProgressTracker) Snapshot() ProgressSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snap
}
