package rebuild

import (
	"fmt"
	"sort"
	"time"

	"fbf/internal/cache"
	"fbf/internal/core"
	"fbf/internal/disk"
	"fbf/internal/grid"
	"fbf/internal/obs"
	"fbf/internal/sim"
)

// ConfigError reports an invalid Config field with the field path and
// the reason, matching the typed-validation style of the experiments
// package.
type ConfigError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("rebuild: invalid %s: %s", e.Field, e.Reason)
}

// DiskFailure schedules the whole-disk failure of one disk at a
// simulated time after the error groups arrive (t = 0).
type DiskFailure struct {
	Disk int
	At   sim.Time
}

// FaultConfig arms deterministic fault injection for a run. All
// outcomes derive from Seed, so identical configurations reproduce
// identical fault schedules regardless of host parallelism.
//
// The engine's escalation ladder:
//
//  1. a transient read timeout retries with capped exponential backoff
//     (up to RetryMax total attempts per fetch);
//  2. an unrecoverable read error (URE) — or an exhausted retry budget —
//     escalates the chunk to lost: its cached copy is invalidated, the
//     current recovery scheme is regenerated around it (GF(2) decoder
//     fallback for multi-erasure chains), and repair continues;
//  3. a whole-disk failure re-plans the remaining work once per failure,
//     with completed chunks checkpointed in spare areas and re-read from
//     there instead of being rebuilt again;
//  4. a pattern beyond the code's tolerance ends in a graceful DataLoss
//     result with per-chunk accounting — never a panic.
type FaultConfig struct {
	Seed          int64
	URERate       float64 // per-address latent-sector-error probability, [0, 1)
	TransientRate float64 // per-attempt transient-timeout probability, [0, 1)

	// RetryMax caps total read attempts per chunk fetch (initial attempt
	// included). Zero selects the default of 4. The delay before retry k
	// is retryBackoff·2^k, capped at retryBackoffCap.
	RetryMax int

	// DiskFailures lists whole-disk failures to inject mid-rebuild.
	DiskFailures []DiskFailure
}

// The simulated fetch retry delays: retryBackoff before the first retry,
// doubling per further retry up to retryBackoffCap.
const (
	retryBackoff    = sim.Millisecond
	retryBackoffCap = 8 * sim.Millisecond
)

// cappedDoubling is the backoff both clocks share — the simulator's fetch
// retries and RunDaemon's pass retries: min(base·2^k, limit) for base > 0,
// doubled step by step so no product past limit is ever formed (base<<k
// wraps negative long before k reaches a daemon's failure count).
func cappedDoubling[T ~int64](base, limit T, k int) T {
	d := min(base, limit)
	for ; k > 0 && d < limit; k-- {
		if d > limit/2 {
			return limit
		}
		d *= 2
	}
	return d
}

// withDefaults returns a copy with unset knobs filled in.
func (f FaultConfig) withDefaults() FaultConfig {
	if f.RetryMax == 0 {
		f.RetryMax = 4
	}
	return f
}

// Validate checks the fault fields against the array width, returning a
// *ConfigError naming the offending field.
func (f *FaultConfig) Validate(disks int) error {
	if f.URERate < 0 || f.URERate >= 1 {
		return &ConfigError{Field: "Faults.URERate", Reason: fmt.Sprintf("rate %v outside [0, 1)", f.URERate)}
	}
	if f.TransientRate < 0 || f.TransientRate >= 1 {
		return &ConfigError{Field: "Faults.TransientRate", Reason: fmt.Sprintf("rate %v outside [0, 1)", f.TransientRate)}
	}
	if f.RetryMax < 0 {
		return &ConfigError{Field: "Faults.RetryMax", Reason: fmt.Sprintf("retry cap %d below 1 (zero selects the default)", f.RetryMax)}
	}
	for i, df := range f.DiskFailures {
		if df.Disk < 0 || df.Disk >= disks {
			return &ConfigError{
				Field:  fmt.Sprintf("Faults.DiskFailures[%d].Disk", i),
				Reason: fmt.Sprintf("disk %d out of range [0,%d)", df.Disk, disks),
			}
		}
		if df.At <= 0 {
			return &ConfigError{
				Field:  fmt.Sprintf("Faults.DiskFailures[%d].At", i),
				Reason: fmt.Sprintf("failure time %v not after error arrival (t=0)", df.At),
			}
		}
	}
	return nil
}

// spareLoc records where a checkpointed (already rebuilt) chunk lives.
type spareLoc struct {
	disk int
	addr int64
}

// armFaults installs the per-disk fault plans on the array config and
// returns the earliest failure time per disk.
func armFaults(f *FaultConfig, arrayCfg *disk.ArrayConfig) map[int]sim.Time {
	failAt := make(map[int]sim.Time)
	for _, df := range f.DiskFailures {
		if cur, ok := failAt[df.Disk]; !ok || df.At < cur {
			failAt[df.Disk] = df.At
		}
	}
	arrayCfg.FaultFor = func(i int) disk.FaultPlan {
		at := failAt[i]
		if f.URERate == 0 && f.TransientRate == 0 && at == 0 {
			return nil
		}
		return disk.NewSeededFaultPlan(i, f.Seed, f.URERate, f.TransientRate, at)
	}
	return failAt
}

// scheduleFailures arms the engine's re-planning reaction to each
// distinct disk failure. The disks themselves fail first at the same
// timestamp (their failure events were scheduled during array
// construction and the simulator breaks time ties by insertion order).
func (e *engine) scheduleFailures(failAt map[int]sim.Time) {
	cols := make([]int, 0, len(failAt))
	for c := range failAt {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	for _, col := range cols {
		col := col
		e.sim.ScheduleAt(failAt[col], func() { e.onDiskFailure(col) })
	}
}

// onDiskFailure reacts to one whole-disk failure: the remaining work is
// re-planned exactly once per failure by flagging every active worker
// to regenerate its scheme at the next barrier.
func (e *engine) onDiskFailure(col int) {
	if e.failedCols[col] {
		return
	}
	e.failedCols[col] = true
	e.rePlans++
	if e.tr != nil {
		e.instant(engineLane, obs.CatFault, "re-plan", obs.Arg{Key: "disk", Val: int64(col)})
	}
	for _, w := range e.workers {
		if w.scheme != nil {
			w.regen = true
		}
	}
}

// loseChunk accounts one chunk as unrecoverable.
func (e *engine) loseChunk(id cache.ChunkID) {
	e.lostChunks = append(e.lostChunks, id)
	if e.tr != nil {
		e.instant(engineLane, obs.CatFault, "data-loss", coordArgs(id)...)
	}
}

// escalate promotes a fetch chunk to lost after an unrecoverable read
// error (or an exhausted retry budget): its now-stale cached copy is
// invalidated and the current scheme is marked for regeneration.
func (w *worker) escalate(cell grid.Coord, id cache.ChunkID) {
	e := w.engine
	e.escalations++
	if e.tr != nil {
		e.instant(w.lane(), obs.CatFault, "escalate", coordArgs(id)...)
	}
	if w.escalSet == nil {
		w.escalSet = make(map[grid.Coord]bool)
	}
	if !w.escalSet[cell] {
		w.escalSet[cell] = true
		w.escalated = append(w.escalated, cell)
	}
	// If the cell had been checkpointed its spare copy is what just
	// failed to read; it needs rebuilding again.
	delete(w.recovered, cell)
	w.cache.Invalidate(id)
	w.aborted = true
}

// markRecovered checkpoints one rebuilt chunk: after a re-plan it is
// re-read from its spare location instead of being rebuilt again.
func (w *worker) markRecovered(cell grid.Coord, diskID int, addr int64) {
	e := w.engine
	if e.faults == nil {
		return
	}
	if w.recovered == nil {
		w.recovered = make(map[grid.Coord]spareLoc)
	}
	w.recovered[cell] = spareLoc{disk: diskID, addr: addr}
	if e.sim.Now() > e.lastRepair {
		e.lastRepair = e.sim.Now()
	}
}

// fetchOp is one miss fetch in flight: the chunk being read, the retry
// count, and the disk request itself. Ops are recycled through the
// worker's freelist with run and the request's completion bound once at
// creation, so a steady-state fetch — including its retries — allocates
// nothing. A chain's ops all retire (success, escalation or
// abandonment) before its barrier fires, so completion always reports
// to the owning worker's current chain.
type fetchOp struct {
	w       *worker
	stripe  int
	cell    grid.Coord
	id      cache.ChunkID
	attempt int
	req     disk.Request // Handler == the op itself: no completion closure
	runFn   func()       // prebound run, created lazily for the retry path
	next    *fetchOp     // freelist / pending-FIFO link (one at a time)
}

// fetchOpSlab is how many ops one freelist refill allocates at once.
const fetchOpSlab = 8

// getFetchOp takes an op from the freelist, refilling it a slab at a
// time on exhaustion.
func (w *worker) getFetchOp() *fetchOp {
	if w.freeOps == nil {
		slab := make([]fetchOp, fetchOpSlab)
		for i := range slab {
			o := &slab[i]
			o.w = w
			o.req.Handler = o
			o.next = w.freeOps
			w.freeOps = o
		}
	}
	o := w.freeOps
	w.freeOps = o.next
	o.next = nil
	return o
}

// putFetchOp returns a retired op to the freelist.
func (w *worker) putFetchOp(o *fetchOp) {
	o.next = w.freeOps
	w.freeOps = o
}

// run issues the op's read: from the chunk's spare checkpoint when one
// exists, otherwise from its home cell.
func (o *fetchOp) run() {
	w := o.w
	e := w.engine
	var err error
	if loc, ok := w.recovered[o.cell]; ok {
		err = e.array.ReadAddrReq(loc.disk, loc.addr, &o.req)
	} else {
		err = e.array.ReadChunkReq(o.stripe, o.cell, &o.req)
	}
	if err != nil {
		panic(fmt.Sprintf("rebuild: read failed: %v", err))
	}
}

// pushPending appends the op to the worker's issue FIFO. Each miss
// schedules the worker's prebound issueNextFn at its lookup-completion
// time; a chain's lookup times strictly increase and the FIFO drains
// before its barrier, so the k-th firing issues the k-th pushed op —
// exactly the pairing the old per-miss closures encoded, without the
// per-miss allocation.
func (w *worker) pushPending(o *fetchOp) {
	if w.pendTail != nil {
		w.pendTail.next = o
	} else {
		w.pendHead = o
	}
	w.pendTail = o
}

// issueNext pops the oldest pending op and submits its read.
func (w *worker) issueNext() {
	o := w.pendHead
	w.pendHead = o.next
	if w.pendHead == nil {
		w.pendTail = nil
	}
	o.next = nil
	o.run()
}

// OnComplete implements disk.Handler: it reacts to the read's outcome
// per the escalation ladder. It fires exactly once per submission; a
// retry resubmits the same op after backoff.
func (o *fetchOp) OnComplete(_ *disk.Request, issued, completed sim.Time) {
	w := o.w
	e := w.engine
	if !o.req.Failed {
		e.recordResponse(e.cfg.CacheAccess + (completed - issued))
		w.putFetchOp(o)
		w.chainDone()
		return
	}
	e.failedReads++
	switch o.req.Fault {
	case disk.FaultTransient:
		if o.attempt+1 < e.faults.RetryMax {
			e.retries++
			if e.tr != nil {
				e.instant(w.lane(), obs.CatFault, "retry",
					obs.Arg{Key: "row", Val: int64(o.cell.Row)},
					obs.Arg{Key: "col", Val: int64(o.cell.Col)},
					obs.Arg{Key: "attempt", Val: int64(o.attempt + 1)})
			}
			if o.runFn == nil {
				o.runFn = o.run
			}
			e.sim.Schedule(cappedDoubling(retryBackoff, retryBackoffCap, o.attempt), o.runFn)
			o.attempt++
			return
		}
		w.escalate(o.cell, o.id)
		w.putFetchOp(o)
		w.chainDone()
	case disk.FaultURE:
		// UREs are permanent per address; retrying cannot help.
		w.escalate(o.cell, o.id)
		w.putFetchOp(o)
		w.chainDone()
	default: // whole-disk failure: the re-plan handles this column
		w.regen = true
		w.putFetchOp(o)
		w.chainDone()
	}
}

// writeRecovered writes the current chain's rebuilt chunk to the spare
// area of its home disk, failing over to the next surviving disk, and
// checkpoints the result. With every disk dead the chunk has nowhere to
// live and is accounted lost. The worker's preallocated spare request
// carries the write; its completion (spareDone) was bound at
// construction.
func (w *worker) writeRecovered() {
	e := w.engine
	lost := w.curSel.Lost
	target, addr := e.array.WriteSpareReq(lost.Col, &w.spareReq)
	if target < 0 {
		e.loseChunk(cache.ChunkID{Stripe: w.scheme.Err.Stripe, Cell: lost})
		w.startChain()
		return
	}
	w.spareTarget, w.spareAddr = target, addr
}

// spareDone completes the spare write of the current chain's recovered
// chunk.
func (w *worker) spareDone(issued, completed sim.Time) {
	if w.spareReq.Failed {
		// The spare target died mid-write; try the next survivor.
		w.writeRecovered()
		return
	}
	w.markRecovered(w.curSel.Lost, w.spareTarget, w.spareAddr)
	w.startChain()
}

// unavailableCells lists this stripe's chunks on failed columns that
// are not covered by exclude (cells being repaired here or readable
// from a live spare checkpoint). Columns are walked in sorted order so
// regeneration is deterministic.
func (e *engine) unavailableCells(exclude func(grid.Coord) bool) []grid.Coord {
	layout := e.cfg.Code.Layout()
	cols := make([]int, 0, len(e.failedCols))
	for c := range e.failedCols {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	var out []grid.Coord
	for _, col := range cols {
		for r := 0; r < layout.Rows(); r++ {
			c := grid.Coord{Row: r, Col: col}
			if !exclude(c) {
				out = append(out, c)
			}
		}
	}
	return out
}

// regenerate rebuilds the worker's recovery scheme mid-group after
// escalations or disk failures changed the erasure pattern. Chunks
// already rebuilt stay checkpointed in their spare areas (unless the
// spare's disk died); cells even the GF(2) decoder cannot solve are
// accounted as data loss and repair continues with the rest.
func (w *worker) regenerate() {
	e := w.engine
	w.aborted, w.regen = false, false
	e.regenerations++
	group := w.scheme.Err

	inRepair := make(map[grid.Coord]bool)
	var repair []grid.Coord
	addRepair := func(c grid.Coord) {
		if inRepair[c] {
			return
		}
		if loc, ok := w.recovered[c]; ok {
			if !e.failedCols[loc.disk] {
				return // checkpointed: readable from its live spare
			}
			delete(w.recovered, c) // the spare died with its disk
		}
		inRepair[c] = true
		repair = append(repair, c)
	}
	for _, c := range group.LostCells() {
		addRepair(c)
	}
	for _, c := range w.escalated {
		addRepair(c)
	}
	e.checkpointed += uint64(len(w.recovered))

	unavailable := e.unavailableCells(func(c grid.Coord) bool {
		if inRepair[c] {
			return true
		}
		_, ok := w.recovered[c]
		return ok
	})

	start := time.Now()
	scheme, lost, err := core.RegenerateScheme(e.cfg.Code, group, repair, unavailable, e.cfg.Strategy)
	e.schemeWall += time.Since(start)
	if err != nil {
		// Inputs were validated and bounds-checked; this is a bug.
		panic(fmt.Sprintf("rebuild: scheme regeneration failed: %v", err))
	}
	for _, c := range lost {
		e.loseChunk(cache.ChunkID{Stripe: group.Stripe, Cell: c})
	}
	if e.tr != nil {
		e.instant(w.lane(), obs.CatFault, "regenerate",
			obs.Arg{Key: "stripe", Val: int64(group.Stripe)},
			obs.Arg{Key: "repair", Val: int64(len(repair))},
			obs.Arg{Key: "lost", Val: int64(len(lost))})
	}
	w.installScheme(scheme)
}
