package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fbf/internal/sim"
)

func TestRegistrySampling(t *testing.T) {
	r := NewRegistry()
	hits, depth := 0, 0
	r.Gauge("hits", func() float64 { return float64(hits) })
	r.Gauge("depth", func() float64 { return float64(depth) })
	h, err := r.Histogram("resp_ms", []float64{1, 10, 100})
	if err != nil {
		t.Fatal(err)
	}

	r.Sample(0)
	hits = 3
	depth = 7
	h.Add(5)
	r.Sample(10 * sim.Millisecond)

	if got := r.Columns(); len(got) != 2 || got[0] != "hits" || got[1] != "depth" {
		t.Fatalf("columns = %v", got)
	}
	if r.Samples() != 2 {
		t.Fatalf("samples = %d", r.Samples())
	}
	at, row := r.Row(1)
	if at != 10*sim.Millisecond || row[0] != 3 || row[1] != 7 {
		t.Fatalf("row 1 = %v %v", at, row)
	}

	var csv bytes.Buffer
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	want := "t_ms,hits,depth\n0,0,0\n10,3,7\n"
	if csv.String() != want {
		t.Fatalf("csv:\n%s\nwant:\n%s", csv.String(), want)
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Columns []string `json:"columns"`
		Samples []struct {
			TNs    int64     `json:"t_ns"`
			Values []float64 `json:"values"`
		} `json:"samples"`
		Histograms []struct {
			Name   string    `json:"name"`
			Total  uint64    `json:"total"`
			Bounds []float64 `json:"bounds"`
			Counts []uint64  `json:"counts"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatalf("registry JSON invalid: %v\n%s", err, js.String())
	}
	if len(doc.Samples) != 2 || doc.Samples[1].TNs != int64(10*sim.Millisecond) {
		t.Fatalf("samples = %+v", doc.Samples)
	}
	if len(doc.Histograms) != 1 || doc.Histograms[0].Name != "resp_ms" || doc.Histograms[0].Total != 1 {
		t.Fatalf("histograms = %+v", doc.Histograms)
	}
	if len(doc.Histograms[0].Counts) != len(doc.Histograms[0].Bounds)+1 {
		t.Fatalf("histogram counts/bounds mismatch: %+v", doc.Histograms[0])
	}

	var js2 bytes.Buffer
	if err := r.WriteJSON(&js2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js.Bytes(), js2.Bytes()) {
		t.Fatal("registry JSON not byte-deterministic")
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	zero := func() float64 { return 0 }
	r.Gauge("a", zero)
	expectPanic("duplicate", func() { r.Gauge("a", zero) })
	expectPanic("empty name", func() { r.Gauge("", zero) })
	r.Sample(0)
	expectPanic("late registration", func() { r.Gauge("b", zero) })

	if _, err := NewRegistry().Histogram("h", nil); err == nil {
		t.Error("histogram with no bounds accepted")
	}
}

func TestRegistryTickIntegration(t *testing.T) {
	// A registry sampled via sim.Tick covers the whole run and the tick
	// does not keep the simulation alive after the last real event.
	s := sim.New()
	r := NewRegistry()
	work := 0
	r.Gauge("work", func() float64 { return float64(work) })
	for i := 1; i <= 5; i++ {
		s.Schedule(sim.Time(i)*10*sim.Millisecond, func() { work++ })
	}
	r.Sample(0)
	s.Tick(25*sim.Millisecond, func(now sim.Time) { r.Sample(now) })
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("tick left %d pending events", s.Pending())
	}
	// Samples at 0, 25, 50 and the final one at 75 ms (>= the last event).
	if r.Samples() < 3 {
		t.Fatalf("too few samples: %d", r.Samples())
	}
	at, row := r.Row(r.Samples() - 1)
	if at < 50*sim.Millisecond || row[0] != 5 {
		t.Fatalf("final sample %v %v, want >=50ms with all work seen", at, row)
	}
}

func TestNumFormatting(t *testing.T) {
	if num(0.5) != "0.5" || num(3) != "3" {
		t.Fatalf("num formatting changed: %s %s", num(0.5), num(3))
	}
	if !strings.Contains(num(1e21), "e+21") {
		t.Fatalf("num(1e21) = %s", num(1e21))
	}
}
