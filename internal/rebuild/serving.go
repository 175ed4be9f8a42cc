package rebuild

import (
	"fmt"

	"fbf/internal/cache"
	"fbf/internal/core"
	"fbf/internal/grid"
	"fbf/internal/obs"
	"fbf/internal/sim"
	"fbf/internal/stats"
	"fbf/internal/workload"
)

// Serving mode: a heavy-traffic foreground stream (workload.Generator's
// open-loop Zipf read/write mix) served by the array while the workers
// rebuild, with per-request latency split by stripe class and an
// optional QoS throttle (qos.go) pacing the rebuild against a
// foreground p99 target. Every code path here is guarded by
// cfg.Serving != nil, so non-serving runs execute the exact pre-serving
// instruction stream — their results and traces stay golden-identical.

// ServingConfig parameterizes the foreground stream of a serving run.
// The stream's stripe space, candidate cells (the layout's data cells)
// and hot set (the stripes under repair) come from the run itself.
type ServingConfig struct {
	Ops       int     // total foreground operations
	Rate      float64 // client arrivals per second of simulated time (open loop)
	ZipfS     float64 // stripe-popularity skew; <= 1 means uniform
	WriteFrac float64 // fraction of operations that are parity read-modify-write updates
	HotFrac   float64 // fraction of operations landing on stripes under repair (0 with no error groups)
	Seed      int64

	// LatencyBoundsMs overrides the per-class latency histogram buckets
	// (default: geometric 0.25 ms .. 60 s at ~12% resolution).
	LatencyBoundsMs []float64

	// QoS, when non-nil, arms the adaptive rebuild throttle.
	QoS *QoSConfig
}

// validate checks the serving fields against the run configuration.
func (s *ServingConfig) validate(c *Config) error {
	if s.Ops < 0 {
		return &ConfigError{Field: "Serving.Ops", Reason: fmt.Sprintf("negative op count %d", s.Ops)}
	}
	if !(s.Rate > 0) {
		return &ConfigError{Field: "Serving.Rate", Reason: fmt.Sprintf("non-positive client rate %v ops/sec", s.Rate)}
	}
	if s.WriteFrac < 0 || s.WriteFrac > 1 {
		return &ConfigError{Field: "Serving.WriteFrac", Reason: fmt.Sprintf("write fraction %v outside [0, 1]", s.WriteFrac)}
	}
	if s.HotFrac < 0 || s.HotFrac > 1 {
		return &ConfigError{Field: "Serving.HotFrac", Reason: fmt.Sprintf("hot fraction %v outside [0, 1]", s.HotFrac)}
	}
	if s.ZipfS > 1 && c.Stripes < 2 {
		return &ConfigError{Field: "Serving.ZipfS", Reason: "Zipf-skewed popularity needs at least 2 stripes"}
	}
	if len(s.LatencyBoundsMs) > 0 {
		if _, err := stats.NewHistogram(s.LatencyBoundsMs); err != nil {
			return &ConfigError{Field: "Serving.LatencyBoundsMs", Reason: err.Error()}
		}
	}
	if s.QoS != nil {
		if err := s.QoS.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// workloadConfig assembles the generator configuration: the stream's
// candidate cells are the layout's data cells, its hot set the distinct
// stripes of the error groups (in group order — no map iteration).
func (s *ServingConfig) workloadConfig(c *Config, groups []core.PartialStripeError) workload.Config {
	layout := c.Code.Layout()
	var cells []grid.Coord
	for r := 0; r < layout.Rows(); r++ {
		for col := 0; col < layout.Cols(); col++ {
			cell := grid.Coord{Row: r, Col: col}
			if !layout.IsParity(cell) {
				cells = append(cells, cell)
			}
		}
	}
	var hot []int
	seen := make(map[int]bool, len(groups))
	for _, g := range groups {
		if !seen[g.Stripe] {
			seen[g.Stripe] = true
			hot = append(hot, g.Stripe)
		}
	}
	hotFrac := s.HotFrac
	if len(hot) == 0 {
		hotFrac = 0
	}
	return workload.Config{
		Ops: s.Ops, Rate: s.Rate, Stripes: c.Stripes, Cells: cells,
		ZipfS: s.ZipfS, WriteFrac: s.WriteFrac,
		HotStripes: hot, HotFrac: hotFrac, Seed: s.Seed,
	}
}

// StripeClass labels a foreground request by the repair state of its
// target at arrival time.
type StripeClass uint8

const (
	// ClassHealthy: the target's stripe has no outstanding lost cells.
	ClassHealthy StripeClass = iota
	// ClassDegraded: the stripe has outstanding lost cells but the
	// target itself is intact (served directly, but contending with the
	// stripe's repair traffic).
	ClassDegraded
	// ClassLost: the target cell itself is still lost; a read
	// reconstructs it through a surviving parity chain.
	ClassLost
	// NumClasses sizes per-class arrays.
	NumClasses = 3
)

// String names the class.
func (c StripeClass) String() string {
	switch c {
	case ClassHealthy:
		return "healthy"
	case ClassDegraded:
		return "degraded"
	case ClassLost:
		return "lost"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ServingClassStats aggregates one stripe class's served requests.
type ServingClassStats struct {
	Ops   uint64
	SumMs float64
	Hist  *stats.Histogram
}

// AvgMs returns the class's mean latency in ms.
func (s *ServingClassStats) AvgMs() float64 {
	if s.Ops == 0 {
		return 0
	}
	return s.SumMs / float64(s.Ops)
}

// P returns the class's q-quantile latency in ms (histogram upper
// bound; 0 with no requests).
func (s *ServingClassStats) P(q float64) float64 {
	if s.Hist == nil {
		return 0
	}
	return s.Hist.Quantile(q)
}

// ServingResult aggregates the foreground stream's metrics (attached to
// Result.Serving; nil unless Config.Serving was set).
type ServingResult struct {
	Reads  uint64 // read arrivals
	Writes uint64 // write arrivals

	Hits   uint64 // cache-probe hits across all member lookups
	Misses uint64

	// FailedReads / FailedWrites count operations that could not be
	// served: a lost target with no surviving parity chain, or a write
	// whose member set is entirely lost or on dead disks. Failed
	// operations record no latency sample.
	FailedReads  uint64
	FailedWrites uint64

	DiskReads  uint64 // disk reads issued by the foreground stream
	DiskWrites uint64 // disk writes issued by the foreground stream
	XORChunks  uint64 // chunks folded into degraded-read reconstructions

	SumMs float64          // summed latency over completed operations (ms)
	Hist  *stats.Histogram // latency over all classes (ms)

	// Classes splits latency by the target's stripe class at arrival,
	// indexed by StripeClass.
	Classes [NumClasses]ServingClassStats

	// Evictions counts cache evictions the foreground probes caused
	// (also reported as Result.AppEvictions and excluded from
	// Result.Cache.Evictions, extending the app-workload split).
	Evictions uint64

	// QoS accounting (zero/nil without a QoS config).
	QoSTrace         []AIMDStep // judged decision windows, in order
	FinalRebuildRate float64    // rebuild IO/s/disk when the run ended
	ThrottleDelay    sim.Time   // total rebuild issue delay injected
}

// Ops returns the number of completed (latency-sampled) operations.
func (r *ServingResult) Ops() uint64 {
	var n uint64
	for i := range r.Classes {
		n += r.Classes[i].Ops
	}
	return n
}

// AvgMs returns the mean foreground latency in ms.
func (r *ServingResult) AvgMs() float64 {
	if n := r.Ops(); n > 0 {
		return r.SumMs / float64(n)
	}
	return 0
}

// P returns the q-quantile foreground latency in ms across all classes.
func (r *ServingResult) P(q float64) float64 {
	if r.Hist == nil {
		return 0
	}
	return r.Hist.Quantile(q)
}

// HitRatio returns the foreground probe hit ratio.
func (r *ServingResult) HitRatio() float64 {
	if t := r.Hits + r.Misses; t > 0 {
		return float64(r.Hits) / float64(t)
	}
	return 0
}

// servingState is the engine's foreground-serving machinery.
type servingState struct {
	e      *engine
	gen    *workload.Generator
	layout *grid.Layout

	// lost tracks cells currently lost (group cells not yet repaired,
	// escalations, permanent data loss); remaining counts them per
	// stripe, so classification is O(1).
	lost      map[cache.ChunkID]bool
	remaining map[int]int

	res *ServingResult
}

// startServing arms the foreground stream: class tracking seeded from
// the error groups, the workload generator, the optional QoS controller
// and the first arrival.
func (e *engine) startServing(groups []core.PartialStripeError) error {
	sc := e.cfg.Serving
	bounds := sc.LatencyBoundsMs
	if len(bounds) == 0 {
		bounds = qosWindowBoundsMs
	}
	sv := &servingState{
		e:         e,
		layout:    e.cfg.Code.Layout(),
		lost:      make(map[cache.ChunkID]bool),
		remaining: make(map[int]int),
		res:       &ServingResult{},
	}
	var err error
	if sv.res.Hist, err = stats.NewHistogram(bounds); err != nil {
		return err
	}
	for i := range sv.res.Classes {
		if sv.res.Classes[i].Hist, err = stats.NewHistogram(bounds); err != nil {
			return err
		}
	}
	for _, g := range groups {
		for _, c := range g.LostCells() {
			sv.addLost(cache.ChunkID{Stripe: g.Stripe, Cell: c})
		}
	}
	if sv.gen, err = workload.New(sc.workloadConfig(&e.cfg, groups)); err != nil {
		return err
	}
	e.serving = sv
	if sc.QoS != nil {
		e.qos = newQoSController(*sc.QoS, e.array.Disks())
		e.sim.Tick(qosWindow, func(now sim.Time) { e.qos.tick(now) })
	}
	sv.scheduleNext()
	return nil
}

// addLost marks one cell lost (idempotent).
func (sv *servingState) addLost(id cache.ChunkID) {
	if sv.lost[id] {
		return
	}
	sv.lost[id] = true
	sv.remaining[id.Stripe]++
}

// repaired marks one cell's repair durable, reclassifying its stripe
// when it was the last outstanding loss. Permanently lost chunks
// (loseChunk) are never reported here and stay in the lost set.
func (sv *servingState) repaired(stripe int, cell grid.Coord) {
	id := cache.ChunkID{Stripe: stripe, Cell: cell}
	if !sv.lost[id] {
		return
	}
	delete(sv.lost, id)
	if n := sv.remaining[stripe] - 1; n > 0 {
		sv.remaining[stripe] = n
	} else {
		delete(sv.remaining, stripe)
	}
}

// classify labels a request target by repair state at this instant.
func (sv *servingState) classify(id cache.ChunkID) StripeClass {
	switch {
	case sv.lost[id]:
		return ClassLost
	case sv.remaining[id.Stripe] > 0:
		return ClassDegraded
	default:
		return ClassHealthy
	}
}

// scheduleNext arms the next arrival. Arrivals self-chain — each
// arrival event draws and schedules its successor — so the event heap
// holds one pending foreground arrival at a time, and timestamps stay
// the generator's open-loop arithmetic regardless of service times.
func (sv *servingState) scheduleNext() {
	op, ok := sv.gen.Next()
	if !ok {
		return
	}
	sv.e.sim.ScheduleAt(op.At, func() {
		sv.scheduleNext()
		sv.arrive(op)
	})
}

// arrive dispatches one foreground operation.
func (sv *servingState) arrive(op workload.Op) {
	id := cache.ChunkID{Stripe: op.Stripe, Cell: op.Cell}
	class := sv.classify(id)
	if op.Kind == workload.Write {
		sv.res.Writes++
		sv.serveWrite(id, class)
		return
	}
	sv.res.Reads++
	if class == ClassLost {
		sv.serveDegradedRead(id)
		return
	}
	sv.serveRead(id, class)
}

// probe looks the chunk up in the owning worker's cache partition,
// attributing any eviction it causes to the foreground stream (the
// PR 6 AppEvictions split, extended to serving).
func (sv *servingState) probe(w *worker, id cache.ChunkID) bool {
	evBefore := w.cache.Stats().Evictions
	hit := w.cache.Request(id)
	d := w.cache.Stats().Evictions - evBefore
	sv.e.appEvictions += d
	sv.res.Evictions += d
	if hit {
		sv.res.Hits++
	} else {
		sv.res.Misses++
	}
	return hit
}

// serveRead serves a read whose target is intact: one cache probe, and
// a disk read on a miss.
func (sv *servingState) serveRead(id cache.ChunkID, class StripeClass) {
	e := sv.e
	if sv.probe(e.ownerWorker(id.Stripe), id) {
		e.sim.Schedule(e.cfg.CacheAccess, func() { sv.finish("read", id, class, e.cfg.CacheAccess) })
		return
	}
	sv.res.DiskReads++
	err := e.array.ReadChunk(id.Stripe, id.Cell, func(issued, completed sim.Time) {
		sv.finish("read", id, class, e.cfg.CacheAccess+(completed-issued))
	})
	if err != nil {
		panic(fmt.Sprintf("rebuild: serving read failed: %v", err))
	}
}

// servingOp tracks one multi-phase foreground operation (degraded read
// or read-modify-write): outstanding counts the phase's pending parts
// and onBarrier runs when they drain.
type servingOp struct {
	sv          *servingState
	id          cache.ChunkID
	class       StripeClass
	start       sim.Time
	outstanding int
	onBarrier   func()
}

// done retires one pending part; the last one through runs the barrier.
func (so *servingOp) done() {
	so.outstanding--
	if so.outstanding == 0 {
		so.onBarrier()
	}
}

// lookupPhase replays the chain-style member access pattern the rebuild
// workers use: sequential cache lookups (lookup i completes at
// (i+1) x CacheAccess), each miss issuing its disk read at its own
// lookup completion, with so.done() as the per-part barrier.
func (sv *servingState) lookupPhase(so *servingOp, w *worker, members []grid.Coord) {
	e := sv.e
	so.outstanding = 1 // the lookup phase itself
	for i, m := range members {
		mid := cache.ChunkID{Stripe: so.id.Stripe, Cell: m}
		if sv.probe(w, mid) {
			continue
		}
		so.outstanding++
		cell := m
		e.sim.Schedule(sim.Time(i+1)*e.cfg.CacheAccess, func() {
			sv.res.DiskReads++
			err := e.array.ReadChunk(so.id.Stripe, cell, func(issued, completed sim.Time) { so.done() })
			if err != nil {
				panic(fmt.Sprintf("rebuild: serving member read failed: %v", err))
			}
		})
	}
	e.sim.Schedule(sim.Time(len(members))*e.cfg.CacheAccess, so.done)
}

// serveDegradedRead reconstructs a still-lost target through the first
// surviving parity chain: member lookups/fetches, then the chain XOR.
func (sv *servingState) serveDegradedRead(id cache.ChunkID) {
	e := sv.e
	members := sv.chainFor(id)
	if members == nil {
		// No chain survives (every kind blocked by another loss or a
		// dead disk): the read cannot be served while repair is pending.
		sv.res.FailedReads++
		if e.tr != nil {
			e.instant(engineLane, obs.CatServe, "failed", coordArgs(id)...)
		}
		return
	}
	so := &servingOp{sv: sv, id: id, class: ClassLost, start: e.sim.Now()}
	so.onBarrier = func() {
		sv.res.XORChunks += uint64(len(members))
		charge := e.cfg.XORPerChunk * sim.Time(len(members))
		e.sim.Schedule(charge, func() {
			sv.finish("read", id, ClassLost, e.sim.Now()-so.start)
		})
	}
	sv.lookupPhase(so, e.ownerWorker(id.Stripe), members)
}

// chainFor returns the members (target excluded) of the first parity
// chain through the cell that is fully readable — no member lost, none
// on a dead disk — or nil when none survives. Kind order is fixed
// (grid.Kinds), so chain selection is deterministic.
func (sv *servingState) chainFor(id cache.ChunkID) []grid.Coord {
	e := sv.e
	for _, kind := range grid.Kinds() {
		ch, ok := sv.layout.ChainThrough(id.Cell, kind)
		if !ok {
			continue
		}
		usable := true
		members := make([]grid.Coord, 0, len(ch.Cells)-1)
		for _, m := range ch.Cells {
			if m == id.Cell {
				continue
			}
			if sv.lost[cache.ChunkID{Stripe: id.Stripe, Cell: m}] || e.failedCols[m.Col] {
				usable = false
				break
			}
			members = append(members, m)
		}
		if usable && len(members) > 0 {
			return members
		}
	}
	return nil
}

// rmwMembers returns the cells a write touches: the data cell plus the
// parity cells of every chain through it, excluding lost cells and dead
// disks (a full implementation would reconstruct those first; the model
// skips them and updates the survivors).
func (sv *servingState) rmwMembers(id cache.ChunkID) []grid.Coord {
	e := sv.e
	var members []grid.Coord
	seen := make(map[grid.Coord]bool, 4)
	add := func(c grid.Coord) {
		if seen[c] || sv.lost[cache.ChunkID{Stripe: id.Stripe, Cell: c}] || e.failedCols[c.Col] {
			return
		}
		seen[c] = true
		members = append(members, c)
	}
	add(id.Cell)
	for _, ch := range sv.layout.ChainsThrough(id.Cell) {
		for _, m := range ch.Cells {
			if m != id.Cell && sv.layout.IsParity(m) {
				add(m)
			}
		}
	}
	return members
}

// serveWrite performs a parity read-modify-write: read the old data and
// parity copies (cache-probed, misses from disk), XOR the deltas, then
// write the new copies concurrently. The response is the last write
// completion. Written chunks are invalidated in the owning cache — the
// cached old copies are stale once the write lands.
func (sv *servingState) serveWrite(id cache.ChunkID, class StripeClass) {
	e := sv.e
	members := sv.rmwMembers(id)
	if len(members) == 0 {
		sv.res.FailedWrites++
		if e.tr != nil {
			e.instant(engineLane, obs.CatServe, "failed", coordArgs(id)...)
		}
		return
	}
	w := e.ownerWorker(id.Stripe)
	so := &servingOp{sv: sv, id: id, class: class, start: e.sim.Now()}
	so.onBarrier = func() {
		charge := e.cfg.XORPerChunk * sim.Time(len(members))
		e.sim.Schedule(charge, func() {
			so.outstanding = len(members)
			so.onBarrier = func() { sv.finish("write", id, class, e.sim.Now()-so.start) }
			for _, m := range members {
				w.cache.Invalidate(cache.ChunkID{Stripe: id.Stripe, Cell: m})
				sv.res.DiskWrites++
				err := e.array.WriteChunk(id.Stripe, m, func(issued, completed sim.Time) { so.done() })
				if err != nil {
					panic(fmt.Sprintf("rebuild: serving write failed: %v", err))
				}
			}
		})
	}
	sv.lookupPhase(so, w, members)
}

// finish records one completed foreground operation.
func (sv *servingState) finish(kind string, id cache.ChunkID, class StripeClass, lat sim.Time) {
	ms := lat.Milliseconds()
	sv.res.SumMs += ms
	sv.res.Hist.Add(ms)
	cs := &sv.res.Classes[class]
	cs.Ops++
	cs.SumMs += ms
	cs.Hist.Add(ms)
	e := sv.e
	if e.qos != nil {
		e.qos.observe(ms)
	}
	if e.tr != nil {
		e.instant(engineLane, obs.CatServe, kind, append(coordArgs(id),
			obs.Arg{Key: "class", Val: int64(class)},
			obs.Arg{Key: "us", Val: int64(lat / sim.Microsecond)})...)
	}
}
