package rebuild

import (
	"fbf/internal/cache"
	"fbf/internal/obs"
)

// Trace plumbing for the SOR engine. Config.Tracer is the one way to
// observe a simulated run: every call site in the engine guards on
// e.tr != nil, so an untraced run executes the pre-obs instruction
// stream and allocates nothing extra — pinned by
// TestObsDisabledHotPathAllocs. The trace carries the run's totals
// (hits, misses, evictions, groups, disk reads and writes), pinned by
// TestTraceCarriesRunTotals.

// engineLane is the run-wide trace lane (app traffic).
var engineLane = obs.Track{Group: obs.GroupEngine, ID: 0}

// lane returns the worker's trace lane.
func (w *worker) lane() obs.Track { return obs.Track{Group: obs.GroupWorkers, ID: w.id} }

// queueLenner is the capability the FBF policy exposes for reading its
// three priority queues (core.FBF.QueueLen); tracedRequest's demote
// instants carry their lengths.
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
