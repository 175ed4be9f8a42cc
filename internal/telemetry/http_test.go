package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// startServer boots a Server on a free port and tears it down with the
// test.
func startServer(t *testing.T, reg *Registry, progress func() any) (*Server, string) {
	t.Helper()
	s := NewServer(reg, progress)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(time.Second) })
	return s, "http://" + addr
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestServerMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	var ops Counter
	ops.Add(9)
	reg.CounterFunc("fbf_live_ops", "Ops.", cellValue(&ops))
	_, base := startServer(t, reg, nil)

	code, body, hdr := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics content type %q", ct)
	}
	if !strings.Contains(body, "fbf_live_ops 9\n") {
		t.Fatalf("/metrics body missing counter:\n%s", body)
	}
}

func TestServerHealthzFlips(t *testing.T) {
	s, base := startServer(t, NewRegistry(), nil)

	code, body, _ := get(t, base+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthy /healthz = %d %q", code, body)
	}
	s.SetHealthy(false)
	code, body, _ = get(t, base+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "shutting down") {
		t.Fatalf("unhealthy /healthz = %d %q", code, body)
	}
	s.SetHealthy(true)
	if code, _, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("re-healthy /healthz = %d", code)
	}
}

func TestServerProgressEndpoint(t *testing.T) {
	reg := NewRegistry()
	dm := NewDaemonMetrics(reg)
	_, base := startServer(t, reg, func() any { return dm.Progress() })

	dm.Scans.Inc()
	dm.Tracker.Scan()
	dm.Tracker.Stripe(7, 3, 12, 9, 25)
	code, body, hdr := get(t, base+"/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/progress content type %q", ct)
	}
	if want := `{"phase":"rebuilding","scans":1,"rebuilds":0,"stripe":7,"stripes_total":12,"stripes_done":3,"chunks_rebuilt":9,"percent":25}` + "\n"; body != want {
		t.Fatalf("/progress bytes = %q, want %q", body, want)
	}
	var snap ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("decode /progress: %v\n%s", err, body)
	}
	want := ProgressSnapshot{Phase: "rebuilding", Scans: 1, Stripe: 7, StripesTotal: 12, StripesDone: 3, ChunksRebuilt: 9, Percent: 25}
	if snap != want {
		t.Fatalf("/progress = %+v, want %+v", snap, want)
	}
}

func TestServerProgressWithoutCallback(t *testing.T) {
	_, base := startServer(t, NewRegistry(), nil)
	code, body, _ := get(t, base+"/progress")
	if code != http.StatusOK || strings.TrimSpace(body) != "null" {
		t.Fatalf("/progress without callback = %d %q, want 200 null", code, body)
	}
}

func TestServerDoubleStartAndClose(t *testing.T) {
	s := NewServer(NewRegistry(), nil)
	if err := s.Close(time.Second); err != nil {
		t.Fatalf("close of never-started server: %v", err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start("127.0.0.1:0"); err == nil {
		t.Fatal("second Start succeeded")
	}
	if err := s.Close(time.Second); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The listener must actually be gone.
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still answering after Close")
	}
}

// TestProgressTrackerPhases walks the daemon's phase transitions: the
// tracker holds the phase and the pass in flight, the cells count the
// passes, and Progress reads both.
func TestProgressTrackerPhases(t *testing.T) {
	dm := NewDaemonMetrics(NewRegistry())
	tr := dm.Tracker
	if got := dm.Progress().Phase; got != "starting" {
		t.Fatalf("initial phase %q", got)
	}
	dm.Scans.Inc()
	tr.Scan()
	if s := dm.Progress(); s.Phase != "scanning" || s.Scans != 1 {
		t.Fatalf("after Scan: %+v", s)
	}
	tr.Stripe(0, 1, 4, 2, 25)
	dm.Rebuilds.Inc()
	if s := dm.Progress(); s.Phase != "rebuilding" || s.Rebuilds != 1 || s.Percent != 25 {
		t.Fatalf("after Stripe+Rebuilt: %+v", s)
	}
	dm.Scans.Inc()
	tr.Scan() // a new pass resets per-pass fields but keeps totals
	if s := dm.Progress(); s.Scans != 2 || s.Rebuilds != 1 || s.StripesDone != 0 || s.Percent != 0 {
		t.Fatalf("after second Scan: %+v", s)
	}
	if s := tr.Snapshot(); s.Scans != 0 || s.Rebuilds != 0 {
		t.Fatalf("tracker books pass counts itself: %+v", s)
	}
	tr.SetPhase("stopped")
	if got := dm.Progress().Phase; got != "stopped" {
		t.Fatalf("final phase %q", got)
	}
}
