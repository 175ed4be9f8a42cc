package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"fbf/internal/sim"
	"fbf/internal/stats"
)

// Registry is an ordered set of named time-series metrics sampled on a
// simulated-time tick, plus end-of-run histograms (reusing
// internal/stats). Registration order fixes the column order of every
// export, so identical runs serialize to identical bytes.
//
// A Registry belongs to one simulation run and is not safe for
// concurrent use; like a Tracer, it is only touched from inside the
// single-threaded simulation loop.
type Registry struct {
	names []string
	reads []func() float64
	seen  map[string]bool

	sampleTS []sim.Time
	samples  [][]float64

	histNames []string
	hists     []*stats.Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{seen: map[string]bool{}} }

func (r *Registry) register(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	if r.seen[name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	if len(r.sampleTS) > 0 {
		panic(fmt.Sprintf("obs: metric %q registered after sampling started", name))
	}
	r.seen[name] = true
}

// Gauge registers a callback column: read is invoked at every sample
// tick (from the simulation loop) and must be cheap and side-effect
// free.
func (r *Registry) Gauge(name string, read func() float64) {
	r.register(name)
	r.names = append(r.names, name)
	r.reads = append(r.reads, read)
}

// Histogram registers an end-of-run histogram with the given bucket
// bounds. Histograms are not sampled per tick; they appear once in the
// JSON export with their final counts.
func (r *Registry) Histogram(name string, bounds []float64) (*stats.Histogram, error) {
	h, err := stats.NewHistogram(bounds)
	if err != nil {
		return nil, err
	}
	r.register(name)
	r.histNames = append(r.histNames, name)
	r.hists = append(r.hists, h)
	return h, nil
}

// Columns returns the sampled metric names in column order.
func (r *Registry) Columns() []string {
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// Sample snapshots every column at the given simulated time, appending
// one row to the time series.
func (r *Registry) Sample(at sim.Time) {
	row := make([]float64, len(r.reads))
	for i, read := range r.reads {
		row[i] = read()
	}
	r.sampleTS = append(r.sampleTS, at)
	r.samples = append(r.samples, row)
}

// Samples returns the number of rows collected.
func (r *Registry) Samples() int { return len(r.samples) }

// Row returns the timestamp and values of sample i.
func (r *Registry) Row(i int) (sim.Time, []float64) { return r.sampleTS[i], r.samples[i] }

// num renders a float deterministically for both exporters.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteCSV writes the time series as CSV: a header of "t_ms" plus the
// column names, then one row per sample tick.
func (r *Registry) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("t_ms")
	for _, name := range r.names {
		bw.WriteByte(',')
		bw.WriteString(name)
	}
	bw.WriteByte('\n')
	for i, row := range r.samples {
		bw.WriteString(num(r.sampleTS[i].Milliseconds()))
		for _, v := range row {
			bw.WriteByte(',')
			bw.WriteString(num(v))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteJSON writes the full registry — columns, sample rows (timestamps
// in integer simulated nanoseconds) and histograms — as one
// deterministic JSON object.
func (r *Registry) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"columns\":[")
	for i, name := range r.names {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(strconv.Quote(name))
	}
	bw.WriteString("],\"samples\":[")
	for i, row := range r.samples {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "{\"t_ns\":%d,\"values\":[", int64(r.sampleTS[i]))
		for j, v := range row {
			if j > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(num(v))
		}
		bw.WriteString("]}")
	}
	bw.WriteString("],\"histograms\":[")
	for i, h := range r.hists {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "{\"name\":%s,\"total\":%d,\"bounds\":[", strconv.Quote(r.histNames[i]), h.Total())
		for j, b := range h.Bounds() {
			if j > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(num(b))
		}
		bw.WriteString("],\"counts\":[")
		for j, c := range h.Counts() {
			if j > 0 {
				bw.WriteByte(',')
			}
			fmt.Fprintf(bw, "%d", c)
		}
		bw.WriteString("]}")
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}
