package store

import (
	"time"

	"fbf/internal/stats"
)

// Op enumerates the Backend operations an Instrumented wrapper counts.
type Op int

const (
	OpRead Op = iota
	OpWrite
	OpDelete
	OpList
	OpStat
	numOps
)

// Ops lists every instrumented operation, in exposition order.
func Ops() []Op { return []Op{OpRead, OpWrite, OpDelete, OpList, OpStat} }

// String names the operation as it appears in metric labels.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpDelete:
		return "delete"
	case OpList:
		return "list"
	case OpStat:
		return "stat"
	}
	return "unknown"
}

// instrumentBoundsSec buckets per-op latency: geometric from a
// microsecond (an in-memory hit) to ~10 s (a throttled or stalled I/O),
// factor 2 — 24 buckets.
var instrumentBoundsSec = func() []float64 {
	b, err := stats.LogBounds(1e-6, 10, 2)
	if err != nil {
		panic("store: instrument latency bounds: " + err.Error()) // fixed valid parameters
	}
	return b
}()

// InstrumentBounds returns the latency bucket bounds (seconds) every
// per-op histogram uses.
func InstrumentBounds() []float64 { return append([]float64(nil), instrumentBoundsSec...) }

// OpStats is one operation's counters at a point in time.
type OpStats struct {
	Ops      uint64 // calls completed
	NotFound uint64 // calls failing with ErrNotFound
	Corrupt  uint64 // calls failing with ErrCorrupt
	IO       uint64 // calls failing with any other error (EIO class)
	Bytes    uint64 // payload bytes moved (reads return, writes submit)

	// Latency histogram over InstrumentBounds (seconds): per-bucket
	// counts with a final overflow bucket, and the summed latency.
	LatencyCounts []uint64
	LatencySum    float64
}

// opRecorder accumulates one operation's counters. The scalar counters
// and the histogram share the mutex: an operation's count and its
// latency observation land atomically, so a scrape never sees one
// without the other.
type opRecorder struct {
	stats OpStats
	hist  *stats.Histogram
}

// Instrumented wraps a Backend, counting calls, payload bytes and
// errors by taxonomy class (not-found / corrupt / io) per operation,
// and recording each call's wall-clock latency — including any time a
// wrapped Throttle spends repaying its token deficit — into a
// stats.LogBounds histogram. It passes the backend conformance suite
// unchanged and composes with Throttle and faultstore: instrument the
// outermost wrapper to see what callers see.
//
// Safe for the same concurrency the wrapped backend supports; the
// counters themselves never race (pinned under -race).
type Instrumented struct {
	inner Backend
	ops   [numOps]struct {
		mu  chan struct{} // 1-buffered mutex; see lock/unlock
		rec opRecorder
	}

	// now is the clock seam (time.Now outside tests).
	now func() time.Time
}

// Instrument wraps a backend with operation counters and latency
// histograms. The wrapper is transparent: every call, result and error
// passes through unchanged.
func Instrument(b Backend) *Instrumented {
	in := &Instrumented{inner: b, now: time.Now}
	for i := range in.ops {
		h, err := stats.NewHistogram(instrumentBoundsSec)
		if err != nil {
			panic("store: instrument histogram: " + err.Error()) // fixed valid bounds
		}
		in.ops[i].mu = make(chan struct{}, 1)
		in.ops[i].rec.hist = h
	}
	return in
}

func (in *Instrumented) lock(op Op)   { in.ops[op].mu <- struct{}{} }
func (in *Instrumented) unlock(op Op) { <-in.ops[op].mu }

// record folds one completed call into the operation's counters.
func (in *Instrumented) record(op Op, start time.Time, bytes int, err error) {
	sec := in.now().Sub(start).Seconds()
	in.lock(op)
	defer in.unlock(op)
	r := &in.ops[op].rec
	r.stats.Ops++
	if bytes > 0 {
		r.stats.Bytes += uint64(bytes)
	}
	switch {
	case err == nil:
	case IsNotFound(err):
		r.stats.NotFound++
	case IsCorrupt(err):
		r.stats.Corrupt++
	default:
		r.stats.IO++
	}
	r.stats.LatencySum += sec
	r.hist.Add(sec)
}

// Stats snapshots one operation's counters.
func (in *Instrumented) Stats(op Op) OpStats {
	in.lock(op)
	defer in.unlock(op)
	r := &in.ops[op].rec
	out := r.stats
	out.LatencyCounts = r.hist.Counts()
	return out
}

// ReadChunk implements Backend.
func (in *Instrumented) ReadChunk(a Addr, dst []byte) (int, error) {
	start := in.now()
	n, err := in.inner.ReadChunk(a, dst)
	bytes := n
	if err != nil {
		bytes = 0
	}
	in.record(OpRead, start, bytes, err)
	return n, err
}

// WriteChunk implements Backend.
func (in *Instrumented) WriteChunk(a Addr, data []byte) error {
	start := in.now()
	err := in.inner.WriteChunk(a, data)
	bytes := len(data)
	if err != nil {
		bytes = 0
	}
	in.record(OpWrite, start, bytes, err)
	return err
}

// Delete implements Backend.
func (in *Instrumented) Delete(a Addr) error {
	start := in.now()
	err := in.inner.Delete(a)
	in.record(OpDelete, start, 0, err)
	return err
}

// List implements Backend.
func (in *Instrumented) List(disk int) ([]Addr, error) {
	start := in.now()
	addrs, err := in.inner.List(disk)
	in.record(OpList, start, 0, err)
	return addrs, err
}

// Stat implements Backend.
func (in *Instrumented) Stat(a Addr) (Info, error) {
	start := in.now()
	info, err := in.inner.Stat(a)
	in.record(OpStat, start, 0, err)
	return info, err
}

// WriteDepth forwards the wrapped backend's write depth; overlapped
// calls are each timed on their own and recorded under the op's lock.
func (in *Instrumented) WriteDepth() int { return WriteDepth(in.inner) }

// StripeDepth forwards the wrapped backend's stripe depth, for the same
// reason as WriteDepth: concurrent reads are each timed on their own.
func (in *Instrumented) StripeDepth() int { return StripeDepth(in.inner) }
