package rebuild

import (
	"fmt"

	"fbf/internal/cache"
	"fbf/internal/obs"
)

// Observability plumbing for the SOR engine. Every call site in the
// engine guards on e.tr != nil (tracing) or a nil histogram/registry
// (metrics), so a run without observability attached executes the
// pre-obs instruction stream and allocates nothing extra — pinned by
// TestObsDisabledHotPathAllocs.

// engineLane is the run-wide trace lane (app traffic).
var engineLane = obs.Track{Group: obs.GroupEngine, ID: 0}

// lane returns the worker's trace lane.
func (w *worker) lane() obs.Track { return obs.Track{Group: obs.GroupWorkers, ID: w.id} }

// queueLenner is the capability the FBF policy exposes for sampling its
// three priority queues (core.FBF.QueueLen).
type queueLenner interface {
	QueueLen(queue int) int
}

// instant emits a point event at the current simulated time. Callers
// hold e.tr != nil.
func (e *engine) instant(track obs.Track, cat, name string, args ...obs.Arg) {
	e.tr.Emit(obs.Event{Name: name, Cat: cat, Ph: obs.PhaseInstant, Track: track, TS: e.sim.Now(), Args: args})
}

// coordArgs renders a chunk id as event args.
func coordArgs(id cache.ChunkID) []obs.Arg {
	return []obs.Arg{
		{Key: "stripe", Val: int64(id.Stripe)},
		{Key: "row", Val: int64(id.Cell.Row)},
		{Key: "col", Val: int64(id.Cell.Col)},
	}
}

// tracedRequest performs one cache lookup with the full cache event
// train: a hit/miss instant, an evict instant when the admission
// displaced residents, and a demote instant when an FBF hit moved the
// chunk between priority queues. Callers hold e.tr != nil; the
// untraced path calls w.cache.Request directly.
func (w *worker) tracedRequest(id cache.ChunkID) bool {
	e := w.engine
	var q1, q2, q3 int
	ql, hasQ := w.cache.(queueLenner)
	if hasQ {
		q1, q2, q3 = ql.QueueLen(1), ql.QueueLen(2), ql.QueueLen(3)
	}
	evBefore := w.cache.Stats().Evictions
	hit := w.cache.Request(id)
	name := "miss"
	if hit {
		name = "hit"
	}
	e.instant(w.lane(), obs.CatCache, name, coordArgs(id)...)
	if d := w.cache.Stats().Evictions - evBefore; d > 0 {
		e.instant(w.lane(), obs.CatCache, "evict", obs.Arg{Key: "count", Val: int64(d)})
	}
	if hasQ && hit {
		n1, n2, n3 := ql.QueueLen(1), ql.QueueLen(2), ql.QueueLen(3)
		if n1 != q1 || n2 != q2 || n3 != q3 {
			e.instant(w.lane(), obs.CatCache, "demote",
				obs.Arg{Key: "q1", Val: int64(n1)},
				obs.Arg{Key: "q2", Val: int64(n2)},
				obs.Arg{Key: "q3", Val: int64(n3)})
		}
	}
	return hit
}

// openChain records the start of one chunk repair (chain replay).
// Callers hold e.tr != nil.
func (w *worker) openChain(lost cache.ChunkID, fetch int) {
	w.obsChainOpen = true
	w.obsChainStart = w.engine.sim.Now()
	w.obsChainLost = lost
	w.obsChainFetch = fetch
}

// closeChain emits the open chunk-repair span, if any.
func (w *worker) closeChain() {
	if !w.obsChainOpen {
		return
	}
	w.obsChainOpen = false
	e := w.engine
	e.tr.Emit(obs.Event{
		Name: "repair", Cat: obs.CatChunk, Ph: obs.PhaseSpan,
		Track: w.lane(), TS: w.obsChainStart, Dur: e.sim.Now() - w.obsChainStart,
		Args: append(coordArgs(w.obsChainLost),
			obs.Arg{Key: "fetch", Val: int64(w.obsChainFetch)}),
	})
}

// closeGroup emits the error-group span covering the whole repair of
// one partial stripe error. Callers hold e.tr != nil.
func (w *worker) closeGroup(stripe, chains int) {
	e := w.engine
	e.tr.Emit(obs.Event{
		Name: "group", Cat: obs.CatGroup, Ph: obs.PhaseSpan,
		Track: w.lane(), TS: w.obsGroupStart, Dur: e.sim.Now() - w.obsGroupStart,
		Args: []obs.Arg{
			{Key: "stripe", Val: int64(stripe)},
			{Key: "chains", Val: int64(chains)},
		},
	})
}

// traceSchemeGen emits the scheme-generation span. Its duration is
// zero: scheme generation costs host time (Result.SchemeGenWall), never
// simulated time, which is what keeps traces byte-reproducible.
func (w *worker) traceSchemeGen(stripe, chains int) {
	e := w.engine
	e.tr.Emit(obs.Event{
		Name: "scheme-gen", Cat: obs.CatScheme, Ph: obs.PhaseSpan,
		Track: w.lane(), TS: e.sim.Now(),
		Args: []obs.Arg{
			{Key: "stripe", Val: int64(stripe)},
			{Key: "chains", Val: int64(chains)},
		},
	})
}

// defaultRespBoundsMs buckets the response-time histogram the metrics
// registry collects (milliseconds).
var defaultRespBoundsMs = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

// registerMetrics wires the run's time-series metrics into the
// registry: request/hit/miss counters, aggregate and per-disk in-flight
// I/O, FBF queue occupancy (when the policy exposes it) and a
// response-time histogram. Column order is fixed by registration order,
// so exports are byte-stable.
func (e *engine) registerMetrics(reg *obs.Registry) {
	reg.Gauge("requests", func() float64 { return float64(e.totalRequests) })
	reg.Gauge("hits", func() float64 { return float64(e.recHits) })
	reg.Gauge("misses", func() float64 { return float64(e.recMisses) })
	reg.Gauge("hit_ratio", func() float64 {
		if t := e.recHits + e.recMisses; t > 0 {
			return float64(e.recHits) / float64(t)
		}
		return 0
	})
	reg.Gauge("evictions", func() float64 {
		var s uint64
		for _, w := range e.workers {
			s += w.cache.Stats().Evictions
		}
		return float64(s)
	})
	reg.Gauge("cached_chunks", func() float64 {
		var s int
		for _, w := range e.workers {
			s += w.cache.Len()
		}
		return float64(s)
	})
	reg.Gauge("groups_done", func() float64 { return float64(e.groupsDone) })
	reg.Gauge("disks_inflight", func() float64 {
		var s int
		for i := 0; i < e.array.Disks(); i++ {
			s += e.array.Disk(i).InFlight()
		}
		return float64(s)
	})
	for i := 0; i < e.array.Disks(); i++ {
		d := e.array.Disk(i)
		reg.Gauge(fmt.Sprintf("disk%d_inflight", i), func() float64 { return float64(d.InFlight()) })
	}
	hasFBF := false
	for _, w := range e.workers {
		if _, ok := w.cache.(queueLenner); ok {
			hasFBF = true
			break
		}
	}
	if hasFBF {
		for q := 1; q <= 3; q++ {
			q := q
			reg.Gauge(fmt.Sprintf("fbf_q%d", q), func() float64 {
				var s int
				for _, w := range e.workers {
					if ql, ok := w.cache.(queueLenner); ok {
						s += ql.QueueLen(q)
					}
				}
				return float64(s)
			})
		}
	}
	h, err := reg.Histogram("response_ms", defaultRespBoundsMs)
	if err != nil {
		panic(fmt.Sprintf("rebuild: response histogram: %v", err)) // fixed valid bounds
	}
	e.obsRespHist = h
}
