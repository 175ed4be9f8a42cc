package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildGoldenRegistry populates a registry with every metric kind,
// label shape and value edge the exposition writer handles: unlabeled
// and multi-label series, escaping, shortest-form floats, histograms
// with overflow.
func buildGoldenRegistry() *Registry {
	reg := NewRegistry()

	// Cells are plain values registered through the *Func constructors,
	// exactly as the producer structs do it.
	counter := func(name, help string, v uint64, labels ...Label) {
		c := new(Counter)
		c.Add(v)
		reg.CounterFunc(name, help, cellValue(c), labels...)
	}
	gauge := func(name, help string, v float64, labels ...Label) {
		g := new(Gauge)
		g.Set(v)
		reg.GaugeFunc(name, help, g.Value, labels...)
	}
	counter("fbf_test_ops", "Operations completed.", 42)
	counter("fbf_test_errors", "Failures by class.", 3, Label{Key: "type", Value: "io"})
	counter("fbf_test_errors", "Failures by class.", 0, Label{Key: "type", Value: "corrupt"})
	// Labels registered out of key order must render sorted.
	counter("fbf_test_multi", "Multi-label series.", 1,
		Label{Key: "zone", Value: "a"}, Label{Key: "disk", Value: "3"})

	gauge("fbf_test_level", "A float gauge.", 0.4375) // exact in binary: renders identically everywhere
	gauge("fbf_test_escaped", "Help with a \\ backslash\nand newline.", -7,
		Label{Key: "path", Value: "a\"b\\c\nd"})

	// 0.0005, 0.002, 0.002, 0.05, 0.5 and an overflowing 30.
	reg.HistogramFunc("fbf_test_seconds", "Latency histogram.", func() HistogramSnapshot {
		return HistogramSnapshot{Bounds: []float64{0.001, 0.01, 0.1, 1}, Counts: []uint64{1, 2, 1, 1, 1}, Sum: 30.5545}
	})
	reg.CounterFunc("fbf_test_bridge", "Callback counter.", func() float64 { return 17 })
	reg.GaugeFunc("fbf_test_bridge_gauge", "Callback gauge.", func() float64 { return 2.5 })
	reg.HistogramFunc("fbf_test_bridge_hist", "Callback histogram.", func() HistogramSnapshot {
		return HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []uint64{4, 0, 1}, Sum: 6.5}
	}, Label{Key: "op", Value: "read"})
	return reg
}

// TestPrometheusGolden pins the text exposition byte-for-byte.
func TestPrometheusGolden(t *testing.T) {
	reg := buildGoldenRegistry()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, filepath.Join("testdata", "prometheus_golden.txt"), buf.Bytes())
}

func goldenCompare(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (rerun with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output diverges from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestPrometheusDeterministic writes the same registry twice and from a
// rebuilt twin: all three expositions must be byte-identical.
func TestPrometheusDeterministic(t *testing.T) {
	reg := buildGoldenRegistry()
	var a, b, c bytes.Buffer
	if err := reg.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := buildGoldenRegistry().WritePrometheus(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two writes of one registry differ")
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Error("identically built registries serialize differently")
	}
}

// TestRegistryPanics pins the fail-fast registration contract.
func TestRegistryPanics(t *testing.T) {
	zero := func() float64 { return 0 }
	cases := []struct {
		name string
		fn   func(*Registry)
	}{
		{"invalid name", func(r *Registry) { r.CounterFunc("0bad", "h", zero) }},
		{"empty name", func(r *Registry) { r.CounterFunc("", "h", zero) }},
		{"invalid label", func(r *Registry) { r.CounterFunc("ok", "h", zero, Label{Key: "0bad", Value: "v"}) }},
		{"duplicate label key", func(r *Registry) {
			r.CounterFunc("ok", "h", zero, Label{Key: "a", Value: "1"}, Label{Key: "a", Value: "2"})
		}},
		{"duplicate series", func(r *Registry) { r.CounterFunc("dup", "h", zero); r.CounterFunc("dup", "h", zero) }},
		{"kind mismatch", func(r *Registry) { r.CounterFunc("mix", "h", zero); r.GaugeFunc("mix", "h", zero) }},
		{"help mismatch", func(r *Registry) {
			r.CounterFunc("help", "one", zero, Label{Key: "a", Value: "1"})
			r.CounterFunc("help", "two", zero, Label{Key: "a", Value: "2"})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

// TestConcurrentProducersAndScrapes hammers cells from many goroutines
// while scraping — the -race pin for the registry's concurrency
// contract.
func TestConcurrentProducersAndScrapes(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	var g Gauge
	reg.CounterFunc("fbf_c", "", cellValue(&c))
	reg.GaugeFunc("fbf_g", "", g.Value)
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; i < 50; i++ {
				buf.Reset()
				if err := reg.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*iters {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*iters)
	}
}
