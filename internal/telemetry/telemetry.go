// Package telemetry is the wall-clock operational metrics subsystem of
// the storage engine. Where internal/obs records deterministic
// simulated-time traces of the event-driven simulator, telemetry
// answers the operator's question about the real-bytes engine: what is
// the rebuild doing *right now*, in wall-clock terms — chunk
// throughput, per-backend I/O latency, escalation-ladder activity,
// throttle state.
//
// The package is three layers:
//
//   - a Registry of counters, gauges and histograms with a
//     deterministic Prometheus text-exposition writer (families sorted
//     by name, series sorted by label set, shortest-form numbers) —
//     identical registry state serializes to identical bytes, so the
//     exposition format is golden-testable;
//   - producer structs (producers.go) whose cells are the rebuild
//     service's and watch daemon's only counters: each event is booked
//     once, on a cell, and ServiceResult/DaemonResult report a pass as
//     the cells' change over it — a run without a registry counts on a
//     private struct nothing scrapes;
//   - an HTTP server (http.go) exposing /metrics, /healthz and
//     /progress, wired into `fbfctl daemon -listen`.
//
// Counter and Gauge cells are atomics and every registered series is a
// read callback, so producers on the rebuild goroutine and scrapes on
// HTTP handler goroutines never race (pinned under -race).
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a metric series. A family
// (one metric name) may hold many series distinguished by label sets.
type Label struct {
	Key   string
	Value string
}

// Counter is a monotonically increasing cell: a plain struct field of
// its producer (producers.go), usable without a registry and exported by
// registering its Value through CounterFunc. Safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add folds a non-negative delta in.
func (c *Counter) Add(d uint64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous cell, embedded and registered
// (GaugeFunc) like Counter. Safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// HistogramSnapshot is the exposition form of a histogram: bucket upper
// bounds, per-bucket counts (len(Bounds)+1, the last is the +Inf
// overflow bucket) and the sum of observations.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
}

// Total returns the observation count.
func (s HistogramSnapshot) Total() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// series is one label set's metric within a family: exactly one of
// value (counters, gauges) or hist (histograms) is set.
type series struct {
	labels string // canonical rendered label set ("" for none)
	value  func() float64
	hist   func() HistogramSnapshot
}

// family groups every series registered under one metric name.
type family struct {
	name, help string
	kind       metricKind
	series     map[string]*series
}

// Registry is a set of named metric families. Registration
// (CounterFunc, GaugeFunc, HistogramFunc) panics on an invalid name, a
// duplicate (name, label set) or a kind/help mismatch — metric wiring is
// program structure, not input, mirroring obs.Registry. Safe for
// concurrent registration and writes.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: map[string]*family{}} }

// validName is the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// escapeLabel escapes a label value for the text exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// renderLabels canonicalizes a label set: sorted by key, rendered as
// {k="v",k2="v2"}. Duplicate keys and invalid names panic.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if !validName(l.Key) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", l.Key))
		}
		if i > 0 {
			if ls[i-1].Key == l.Key {
				panic(fmt.Sprintf("telemetry: duplicate label %q", l.Key))
			}
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// register adds one series, creating the family on first use.
func (r *Registry) register(name, help string, kind metricKind, s *series) {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %v (was %v)", name, kind, f.kind))
	}
	if f.help != help {
		panic(fmt.Sprintf("telemetry: metric %q re-registered with different help", name))
	}
	if _, dup := f.series[s.labels]; dup {
		panic(fmt.Sprintf("telemetry: duplicate series %s%s", name, s.labels))
	}
	f.series[s.labels] = s
}

// CounterFunc registers a counter series read from a callback at every
// exposition — the bridge to state owned elsewhere (an Instrumented
// backend's atomics). read must be safe to call from any goroutine and
// must be monotone for the exposition to make sense as a counter.
func (r *Registry) CounterFunc(name, help string, read func() float64, labels ...Label) {
	r.register(name, help, kindCounter, &series{labels: renderLabels(labels), value: read})
}

// GaugeFunc registers a gauge series read from a callback at every
// exposition. read must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, read func() float64, labels ...Label) {
	r.register(name, help, kindGauge, &series{labels: renderLabels(labels), value: read})
}

// HistogramFunc registers a histogram series read from a callback at
// every exposition — the bridge to latency histograms owned elsewhere.
// read must be safe to call from any goroutine.
func (r *Registry) HistogramFunc(name, help string, read func() HistogramSnapshot, labels ...Label) {
	r.register(name, help, kindHistogram, &series{labels: renderLabels(labels), hist: read})
}

// snapshotFamilies captures the family and series lists in sorted order
// under the lock; the series callbacks are invoked outside it.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedSeries returns one family's series sorted by label set.
func (f *family) sortedSeries() []*series {
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}

// num renders a value in shortest form, identically across platforms.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeHelp escapes a help string for the # HELP line.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// histLabels splices the le label into a series' rendered label set.
func histLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4). The output is deterministic: families sorted
// by name, series by label set, values in shortest form — identical
// registry state serializes to identical bytes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshotFamilies() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.sortedSeries() {
			if f.kind != kindHistogram {
				fmt.Fprintf(bw, "%s%s %s\n", f.name, s.labels, num(s.value()))
				continue
			}
			snap := s.hist()
			var cum uint64
			for i, b := range snap.Bounds {
				cum += snap.Counts[i]
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, histLabels(s.labels, num(b)), cum)
			}
			total := snap.Total()
			fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, histLabels(s.labels, "+Inf"), total)
			fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, s.labels, num(snap.Sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", f.name, s.labels, total)
		}
	}
	return bw.Flush()
}
