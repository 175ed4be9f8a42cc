package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"fbf/internal/store"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	parent     int // index into tracer.spans; -1 for the root
	name       string
	start, end time.Duration // since tracer.t0
	addr       store.Addr    // store.* spans
}

// tracer keeps the traced run's spans in memory: bench.run at index 0,
// under it one bench.rep per repetition holding a rebuild.run whose
// children are the store.* calls the engine made, and the standalone
// layer measurements.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: []span{{parent: -1, name: "bench.run"}}}
}

// reserve makes room for n more spans now, so that the slice does not
// grow inside a timed window.
func (t *tracer) reserve(n int) { t.spans = slices.Grow(t.spans, n) }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{parent: parent, name: name, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].end = time.Since(t.t0) }

// window sets a span to exactly the interval the caller timed.
func (t *tracer) window(id int, start time.Time, d time.Duration) {
	t.spans[id].start = start.Sub(t.t0)
	t.spans[id].end = t.spans[id].start + d
}

// timed runs f as a standalone span under the root.
func (t *tracer) timed(name string, f func() error) (time.Duration, error) {
	id := t.begin(name, 0)
	err := f()
	t.end(id)
	return t.spans[id].end - t.spans[id].start, err
}

// timedBackend is the benchmark's timing wrapper around the engine's
// backend: one leaf span per call, child of the repetition's
// rebuild.run span. Delete is the benchmark's own damage injection and
// passes through untimed.
type timedBackend struct {
	store.Backend
	tr     *tracer
	parent int
}

func (b *timedBackend) leaf(name string, a store.Addr, start time.Duration) {
	b.tr.spans = append(b.tr.spans, span{parent: b.parent, name: name, start: start, end: time.Since(b.tr.t0), addr: a})
}

func (b *timedBackend) ReadChunk(a store.Addr, dst []byte) (int, error) {
	start := time.Since(b.tr.t0)
	n, err := b.Backend.ReadChunk(a, dst)
	b.leaf("store.read", a, start)
	return n, err
}

func (b *timedBackend) WriteChunk(a store.Addr, data []byte) error {
	start := time.Since(b.tr.t0)
	err := b.Backend.WriteChunk(a, data)
	b.leaf("store.write", a, start)
	return err
}

func (b *timedBackend) Stat(a store.Addr) (store.Info, error) {
	start := time.Since(b.tr.t0)
	info, err := b.Backend.Stat(a)
	b.leaf("store.stat", a, start)
	return info, err
}

func (b *timedBackend) List(disk int) ([]store.Addr, error) {
	start := time.Since(b.tr.t0)
	addrs, err := b.Backend.List(disk)
	b.leaf("store.list", store.Addr{Disk: disk}, start)
	return addrs, err
}

// opTimes is one store operation's spans under one rebuild.run.
type opTimes struct {
	total time.Duration
	us    []float64 // each call, microseconds, sorted by storeOps
}

// storeOps gathers the store.* children of a rebuild.run span by
// operation and returns the time they cover. The split of a run into
// store time and the engine's self time rests on the service being
// serial and store calls being leaves, so that is checked: every child
// lies inside the run and starts after the previous one ended.
func (t *tracer) storeOps(run int) (ops map[string]*opTimes, covered time.Duration, err error) {
	ops = map[string]*opTimes{}
	parent := t.spans[run]
	prevEnd := parent.start
	for i := run + 1; i < len(t.spans) && t.spans[i].parent == run; i++ {
		s := t.spans[i]
		if s.start < prevEnd || s.end < s.start || s.end > parent.end {
			return nil, 0, fmt.Errorf("span %d (%s %v) overlaps its neighbour or leaves rebuild.run: the store/self split no longer holds", i, s.name, s.addr)
		}
		prevEnd = s.end
		o := ops[s.name]
		if o == nil {
			o = &opTimes{}
			ops[s.name] = o
		}
		d := s.end - s.start
		o.total += d
		o.us = append(o.us, float64(d)/float64(time.Microsecond))
		covered += d
	}
	for _, o := range ops {
		sort.Float64s(o.us)
	}
	return ops, covered, nil
}

// writeJSONL writes one span per line; "rep" is the enclosing bench.rep
// span, the identifier the spans of one repetition share.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	rep := make([]int, len(t.spans))
	for i, s := range t.spans {
		switch {
		case s.name == "bench.rep":
			rep[i] = i
		case s.parent >= 0:
			rep[i] = rep[s.parent]
		}
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"rep":%d,"name":%q,"start_ns":%d,"end_ns":%d`, i, s.parent, rep[i], s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
		if strings.HasPrefix(s.name, "store.") {
			fmt.Fprintf(w, `,"addr":%q`, s.addr.String())
		}
		fmt.Fprintln(w, "}")
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
