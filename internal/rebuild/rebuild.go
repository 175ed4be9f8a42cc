// Package rebuild runs partial-stripe reconstruction over the simulated
// disk array: it replays each error group's recovery scheme through a
// buffer cache, issues disk reads for misses, models XOR compute and
// spare-chunk writes, and collects the four metrics of the paper's
// evaluation (hit ratio, disk reads, response time, reconstruction
// time).
//
// The engine implements the paper's SOR-style parallel reconstruction:
// N workers each own a partition of the cache and repair one stripe's
// error group at a time; within a group, the chunk requests of one
// parity chain are looked up sequentially in the worker's cache (0.5 ms
// per access in the paper's configuration) with misses fetched from the
// array concurrently, then the chain XOR is computed and the recovered
// chunk written to the failed disk's spare area.
package rebuild

import (
	"fmt"
	"math/rand"
	"time"

	"fbf/internal/cache"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/disk"
	"fbf/internal/grid"
	"fbf/internal/obs"
	"fbf/internal/sim"
)

// Config parameterizes one reconstruction run.
type Config struct {
	Code     *codes.Code
	Policy   string        // cache policy registry name ("fbf", "lru", ...)
	Strategy core.Strategy // recovery-scheme generation strategy

	Mode        Mode // SOR (default) or DOR parallelization
	Workers     int  // parallel reconstruction processes (the paper uses 128)
	CacheChunks int  // total cache capacity in chunks, split across workers
	ChunkSize   int  // bytes per chunk (the paper uses 32 KB)
	Stripes     int  // stripes on the array

	CacheAccess sim.Time // buffer access time (paper: 0.5 ms)
	XORPerChunk sim.Time // compute cost per chunk XORed into an accumulator

	// ModelFor overrides the per-disk service model (nil → the paper's
	// fixed 10 ms model).
	ModelFor func(i int) disk.Model

	// App, when non-nil, issues a foreground application read workload
	// during reconstruction ("online recovery", Section V of the paper):
	// the requests share the workers' cache partitions and contend for
	// the disks, so recovery slows the application and vice versa.
	App *AppWorkload

	// Tracer, when non-nil, receives the run's event stream: error-group
	// and chunk-repair spans, scheme-generation charges, cache
	// hit/miss/evict/demote instants, per-disk io spans and queue
	// counters, XOR spans and foreground-read instants — all stamped in
	// simulated time, so a trace is bit-identical across hosts and
	// sweep parallelism. Nil keeps every instrumentation site behind a
	// single branch with zero allocations.
	Tracer obs.Tracer
}

// AppWorkload parameterizes the foreground read stream of an online
// recovery run.
type AppWorkload struct {
	Requests     int      // total application reads to issue
	Interarrival sim.Time // gap between arrivals (default 1 ms)
	Seed         int64

	// ErrorLocality is the probability that a request targets a stripe
	// with a partial stripe error — modeling the spatial locality the
	// paper cites (application traffic near failing regions). Such
	// requests probe the cache partition of the worker repairing that
	// stripe, so chunks the cache held for recovery can serve them.
	ErrorLocality float64
}

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

// Defaults fills unset fields with the paper's configuration.
func (c *Config) Defaults() {
	if c.Workers == 0 {
		c.Workers = 128
	}
	if c.ChunkSize == 0 {
		c.ChunkSize = 32 * 1024
	}
	if c.CacheAccess == 0 {
		c.CacheAccess = sim.Millisecond / 2
	}
	if c.XORPerChunk == 0 {
		// ~32 KB XOR at ~10 GB/s plus controller overhead.
		c.XORPerChunk = 10 * sim.Microsecond
	}
	if c.Stripes == 0 {
		c.Stripes = 1 << 16
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Code == nil {
		return fmt.Errorf("rebuild: nil code")
	}
	if _, err := cache.New(c.Policy, 0); err != nil {
		return err
	}
	if c.Workers <= 0 {
		return fmt.Errorf("rebuild: non-positive workers %d", c.Workers)
	}
	if c.CacheChunks < 0 {
		return fmt.Errorf("rebuild: negative cache size %d", c.CacheChunks)
	}
	if c.ChunkSize <= 0 {
		return fmt.Errorf("rebuild: non-positive chunk size %d", c.ChunkSize)
	}
	if c.Stripes <= 0 {
		return fmt.Errorf("rebuild: non-positive stripe count %d", c.Stripes)
	}
	if c.CacheAccess < 0 || c.XORPerChunk < 0 {
		return fmt.Errorf("rebuild: negative timing parameter")
	}
	if c.App != nil {
		if c.App.Requests < 0 {
			return &ConfigError{Field: "App.Requests", Reason: fmt.Sprintf("negative request count %d", c.App.Requests)}
		}
		if c.App.ErrorLocality < 0 || c.App.ErrorLocality > 1 {
			return &ConfigError{Field: "App.ErrorLocality", Reason: fmt.Sprintf("probability %v outside [0, 1]", c.App.ErrorLocality)}
		}
	}
	return nil
}

// Result aggregates one run's metrics.
type Result struct {
	Policy   string
	Strategy core.Strategy

	Cache      cache.Stats // summed over workers
	DiskReads  uint64
	DiskWrites uint64

	Groups        int
	TotalRequests uint64   // chunk requests replayed through caches
	SumResponse   sim.Time // summed per-request response time
	Makespan      sim.Time // total reconstruction time

	// SchemeGenWall is the summed wall time of every group's scheme
	// generation: each scheme's own time.Since, measured around
	// core.GenerateScheme (SOR: on the run's scheme producer, beside the
	// event loop; DOR: inline).
	SchemeGenWall time.Duration
	XORChunks     uint64 // chunks folded into XOR accumulators

	// Online-recovery metrics (zero unless Config.App was set). The
	// application requests share the workers' caches, so Cache above
	// counts recovery requests only; AppHits/AppMisses count the
	// foreground stream.
	AppRequests    uint64
	AppHits        uint64
	AppSumResponse sim.Time

	// AppEvictions counts cache evictions triggered by Config.App's
	// reads. Cache.Evictions above counts only evictions the recovery
	// replay itself caused; the streams share each worker's partition, so
	// without the split the foreground workload would silently inflate
	// the recovery eviction figure.
	AppEvictions uint64

	// PerDisk holds each disk's served-I/O counters, indexed by disk id;
	// useful for load-balance analysis.
	PerDisk []disk.Stats

	// DataLoss is always false: every simulated read succeeds. It stays
	// for the benchmark harness, which reads it.
	DataLoss bool
}

// AppHitRatio returns the foreground workload's hit ratio.
func (r *Result) AppHitRatio() float64 {
	if r.AppRequests == 0 {
		return 0
	}
	return float64(r.AppHits) / float64(r.AppRequests)
}

// AppAvgResponse returns the foreground workload's mean response time.
func (r *Result) AppAvgResponse() sim.Time {
	if r.AppRequests == 0 {
		return 0
	}
	return sim.Time(int64(r.AppSumResponse) / int64(r.AppRequests))
}

// HitRatio returns the aggregated cache hit ratio.
func (r *Result) HitRatio() float64 { return r.Cache.HitRatio() }

// AvgResponse returns the mean response time per chunk request.
func (r *Result) AvgResponse() sim.Time {
	if r.TotalRequests == 0 {
		return 0
	}
	return sim.Time(int64(r.SumResponse) / int64(r.TotalRequests))
}

// AvgSchemeGen returns the mean wall-clock scheme-generation time per
// error group — the paper's Table IV "temporal overhead".
func (r *Result) AvgSchemeGen() time.Duration {
	if r.Groups == 0 {
		return 0
	}
	return r.SchemeGenWall / time.Duration(r.Groups)
}

// cachePartition splits total cache chunks across n worker partitions
// as evenly as possible: every partition gets total/n chunks and the
// first total%n partitions get one extra, so no capacity is lost to
// integer division (with 1000 chunks and 128 workers the old plain
// division silently discarded 104 chunks — over 10% of the cache).
func cachePartition(total, n int) []int {
	if n <= 0 {
		return nil
	}
	base, extra := total/n, total%n
	parts := make([]int, n)
	for i := range parts {
		parts[i] = base
		if i < extra {
			parts[i]++
		}
	}
	return parts
}

// Run executes a reconstruction of the given error groups and returns
// the collected metrics.
//
// Concurrency contract: Run is safe to call from multiple goroutines
// simultaneously, including with a shared cfg.Code and a shared errors
// slice. It treats both as strictly read-only — a codes.Code and its
// grid.Layout are immutable after construction, and the error groups
// are never written. The experiments package's parallel sweeps rely on
// this invariant to run one generated trace through many concurrent
// policy/size runs; anything added to the engine or the code type must
// preserve it (internal/rebuild's concurrency test runs under -race to
// keep it honest). A SOR run also reads both from one scheme producer
// goroutine of its own (schemes.go), which Run joins before it returns
// or panics.
func Run(cfg Config, errors []core.PartialStripeError) (*Result, error) {
	cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for _, e := range errors {
		if err := e.Validate(cfg.Code); err != nil {
			return nil, err
		}
		if e.Stripe >= cfg.Stripes {
			return nil, fmt.Errorf("rebuild: error %v beyond array stripes %d", e, cfg.Stripes)
		}
	}
	if cfg.Mode == ModeDOR && (cfg.App != nil || cfg.Tracer != nil) {
		return nil, fmt.Errorf("rebuild: DOR mode does not support App or observability")
	}

	s := sim.New()
	array, err := disk.NewArray(s, disk.ArrayConfig{
		Disks:     cfg.Code.Disks(),
		Rows:      cfg.Code.Rows(),
		Stripes:   cfg.Stripes,
		ChunkSize: cfg.ChunkSize,
		ModelFor:  cfg.ModelFor,
		Tracer:    cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Mode == ModeDOR {
		return runDOR(cfg, s, array, errors)
	}

	e := &engine{cfg: cfg, sim: s, array: array, groups: errors, tr: cfg.Tracer}
	if cfg.App != nil {
		e.stripeOwner = make(map[int]int)
	}
	workers := cfg.Workers
	if workers > len(errors) && len(errors) > 0 {
		workers = len(errors)
	}
	// Partition the cache by configured workers (idle partitions stay
	// reserved), distributing the division remainder so the full
	// configured capacity is usable.
	parts := cachePartition(cfg.CacheChunks, cfg.Workers)
	for i := 0; i < workers; i++ {
		policy, err := cache.New(cfg.Policy, parts[i])
		if err != nil {
			return nil, err
		}
		w := &worker{engine: e, id: i, cache: policy}
		w.doneFn = w.chainDone
		w.afterXORFn = w.afterXOR
		w.issueNextFn = w.issueNext
		w.spareReq.Done = func(_, _ sim.Time) { w.startChain() }
		e.workers = append(e.workers, w)
		s.Schedule(0, w.nextGroup)
	}
	if cfg.App != nil && len(e.workers) > 0 {
		e.scheduleAppWorkload()
	}
	e.schemes = startSchemes(cfg.Code, cfg.Strategy, errors, workers)
	defer e.schemes.stop()
	s.Run()

	res := &Result{
		Policy:         cfg.Policy,
		Strategy:       cfg.Strategy,
		Groups:         len(errors),
		TotalRequests:  e.totalRequests,
		SumResponse:    e.sumResponse,
		Makespan:       e.recoveryEnd,
		SchemeGenWall:  e.schemeWall,
		XORChunks:      e.xorChunks,
		AppRequests:    e.appHits + e.appMisses,
		AppHits:        e.appHits,
		AppSumResponse: e.appSumResponse,
	}
	res.Cache.Hits = e.recHits
	res.Cache.Misses = e.recMisses
	for _, w := range e.workers {
		res.Cache.Evictions += w.cache.Stats().Evictions
	}
	// The per-worker caches count every eviction regardless of which
	// stream caused it; attribute the foreground-induced ones separately.
	res.Cache.Evictions -= e.appEvictions
	res.AppEvictions = e.appEvictions
	return res.countDisks(array), nil
}

// countDisks fills res's disk counts from the array its run drove and
// returns res.
func (res *Result) countDisks(array *disk.Array) *Result {
	total := array.TotalStats()
	res.DiskReads = total.Reads
	res.DiskWrites = total.Writes
	for i := 0; i < array.Disks(); i++ {
		res.PerDisk = append(res.PerDisk, array.Disk(i).Stats())
	}
	return res
}

// engine holds the run-wide state shared by workers.
type engine struct {
	cfg    Config
	sim    *sim.Simulator
	array  *disk.Array
	groups []core.PartialStripeError
	next   int

	// schemes delivers each group's scheme in trace order, generated
	// ahead of the event loop.
	schemes *schemeFeed

	workers       []*worker
	totalRequests uint64
	sumResponse   sim.Time
	schemeWall    time.Duration
	xorChunks     uint64
	recoveryEnd   sim.Time
	recHits       uint64
	recMisses     uint64

	appHits        uint64
	appMisses      uint64
	appSumResponse sim.Time
	appEvictions   uint64
	stripeOwner    map[int]int // stripe -> worker id that repaired it; Config.App only

	tr obs.Tracer // Config.Tracer; nil when the run is not traced
}

// worker repairs one error group at a time (stripe-oriented
// reconstruction), owning a private cache partition.
//
// The chain replay is a state machine over preallocated fields rather
// than per-chain closures: chains run strictly one at a time per
// worker, so the current chain (curSel), its fetch barrier counter
// (outstanding) and the spare-write request all live on the worker and
// are reused for every chain of every group. The callbacks the
// simulator and disks invoke (doneFn, afterXORFn, spareReq.Done) are
// bound once at construction — the old code allocated a done/barrier
// closure pair per chain plus one closure per miss, which dominated the
// rebuild hot path's allocations.
type worker struct {
	engine *engine
	id     int
	cache  cache.Policy

	// scheme is the group under repair, installed in the cache; a
	// retired worker keeps its last one installed.
	scheme   *core.Scheme
	chainIdx int

	// Chain state machine (reused across chains).
	curSel      core.SelectedChain
	outstanding int    // lookup phase + in-flight miss fetches
	doneFn      func() // prebound chainDone
	afterXORFn  func() // prebound afterXOR

	// spareReq carries the spare write (one in flight per worker at
	// most); its Done, bound at construction, starts the next chain.
	spareReq disk.Request

	// freeOps recycles fetch operations; each op embeds its disk.Request
	// and implements disk.Handler, so a steady-state miss fetch allocates
	// nothing. pendHead/pendTail queue ops awaiting their lookup
	// completion (issued in FIFO order by issueNextFn).
	freeOps     *fetchOp
	pendHead    *fetchOp
	pendTail    *fetchOp
	issueNextFn func() // prebound issueNext

	// Trace state (Config.Tracer only; see obs.go).
	obsGroupStart sim.Time
	obsChainStart sim.Time
	obsChainLost  cache.ChunkID
	obsChainFetch int
	obsChainOpen  bool
}

// ownerWorker returns the cache partition a stripe's requests probe:
// the worker that repaired (or will repair) it when known, otherwise a
// stable hash partition.
func (e *engine) ownerWorker(stripe int) *worker {
	if wid, ok := e.stripeOwner[stripe]; ok {
		return e.workers[wid]
	}
	return e.workers[stripe%len(e.workers)]
}

// scheduleAppWorkload arms the foreground read stream: requests arrive
// at fixed intervals, target uniformly-distributed stripes, probe the
// cache partition owning the stripe, and read from disk on a miss.
func (e *engine) scheduleAppWorkload() {
	app := e.cfg.App
	inter := app.Interarrival
	if inter <= 0 {
		inter = sim.Millisecond
	}
	rng := rand.New(rand.NewSource(app.Seed))
	layout := e.cfg.Code.Layout()
	for i := 0; i < app.Requests; i++ {
		stripe := 0
		if len(e.groups) > 0 && rng.Float64() < app.ErrorLocality {
			stripe = e.groups[rng.Intn(len(e.groups))].Stripe
		} else {
			stripe = rng.Intn(e.cfg.Stripes)
		}
		cell := grid.Coord{Row: rng.Intn(layout.Rows()), Col: rng.Intn(layout.Cols())}
		at := sim.Time(i+1) * inter
		e.sim.ScheduleAt(at, func() {
			owner := e.ownerWorker(stripe)
			id := cache.ChunkID{Stripe: stripe, Cell: cell}
			evBefore := owner.cache.Stats().Evictions
			hit := owner.cache.Request(id)
			e.appEvictions += owner.cache.Stats().Evictions - evBefore
			if hit {
				e.appHits++
				e.appSumResponse += e.cfg.CacheAccess
				if e.tr != nil {
					e.instant(engineLane, obs.CatApp, "app-hit", coordArgs(id)...)
				}
				return
			}
			e.appMisses++
			if e.tr != nil {
				e.instant(engineLane, obs.CatApp, "app-miss", coordArgs(id)...)
			}
			err := e.array.ReadChunk(stripe, cell, func(issued, completed sim.Time) {
				e.appSumResponse += e.cfg.CacheAccess + (completed - issued)
			})
			if err != nil {
				panic(fmt.Sprintf("rebuild: app read failed: %v", err))
			}
		})
	}
}

// nextGroup claims the next unprocessed error group and starts its
// recovery; with none left the worker goes idle.
func (w *worker) nextGroup() {
	e := w.engine
	if e.next >= len(e.groups) {
		// This worker retires; the latest retirement time is the
		// reconstruction makespan.
		if e.sim.Now() > e.recoveryEnd {
			e.recoveryEnd = e.sim.Now()
		}
		return
	}
	group := e.groups[e.next]
	e.next++
	if e.stripeOwner != nil {
		e.stripeOwner[group.Stripe] = w.id
	}
	if e.tr != nil {
		w.obsGroupStart = e.sim.Now()
	}

	g := e.schemes.next()
	e.schemeWall += g.wall
	if g.err != nil {
		// Validated upfront; a failure here is a bug worth surfacing.
		panic(fmt.Sprintf("rebuild: scheme generation failed mid-run: %v", g.err))
	}
	scheme, prev := g.scheme, w.scheme
	// Priorities and future knowledge go into the cache, then chain
	// replay starts.
	w.scheme = scheme
	w.chainIdx = 0
	if f, ok := w.cache.(*core.FBF); ok {
		f.SetScheme(scheme) // the same priorities as PriorityIDs, no map
	}
	if fa, ok := w.cache.(cache.FutureAware); ok {
		fa.SetFuture(scheme.RequestIDs())
	}
	// The previous group's scheme was installed until now (Config.App's
	// probes read it between groups); nothing reads it any more.
	if prev != nil {
		e.schemes.recycle(prev)
	}
	if e.tr != nil {
		w.traceSchemeGen(scheme.Err.Stripe, len(scheme.Selected))
	}
	w.startChain()
}

// startChain replays one selected chain: sequential cache lookups with
// concurrent disk fetches for the misses, then XOR compute and the spare
// write for the recovered chunk.
func (w *worker) startChain() {
	e := w.engine
	if e.tr != nil {
		// The previous chain (if any) ran to completion; its span ends at
		// the spare-write completion that re-entered us.
		w.closeChain()
	}
	if w.chainIdx >= len(w.scheme.Selected) {
		if e.tr != nil {
			w.closeGroup(w.scheme.Err.Stripe, len(w.scheme.Selected))
		}
		w.nextGroup()
		return
	}
	sel := w.scheme.Selected[w.chainIdx]
	w.chainIdx++
	w.curSel = sel
	stripe := w.scheme.Err.Stripe
	if e.tr != nil {
		w.openChain(cache.ChunkID{Stripe: stripe, Cell: sel.Lost}, len(sel.Fetch))
	}

	w.outstanding = 1 // the lookup phase itself

	// Sequential lookups: lookup i completes at (i+1) * CacheAccess from
	// now. Policy calls happen in request order; a miss issues its disk
	// read at its own lookup completion time.
	now := e.sim.Now()
	for i, cell := range sel.Fetch {
		e.totalRequests++
		id := cache.ChunkID{Stripe: stripe, Cell: cell}
		var hit bool
		if e.tr != nil {
			hit = w.tracedRequest(id)
		} else {
			hit = w.cache.Request(id)
		}
		lookupDone := now + sim.Time(i+1)*e.cfg.CacheAccess
		if hit {
			e.recHits++
			// A hit's data is available when its lookup completes — after
			// the i earlier sequential accesses of the chain plus its own,
			// so the response time includes the queueing delay. (Misses
			// charge relative to their own lookup completion, when the
			// disk read is issued.)
			e.sumResponse += sim.Time(i+1) * e.cfg.CacheAccess
			continue
		}
		e.recMisses++
		w.outstanding++
		o := w.getFetchOp()
		o.stripe, o.cell = stripe, cell
		w.pushPending(o)
		e.sim.ScheduleAt(lookupDone, w.issueNextFn)
	}
	// The lookup phase ends after the last sequential access.
	e.sim.ScheduleAt(now+sim.Time(len(sel.Fetch))*e.cfg.CacheAccess, w.doneFn)
}

// chainDone retires one of the current chain's outstanding parts (the
// lookup phase or a miss fetch); the last one through runs the barrier.
func (w *worker) chainDone() {
	w.outstanding--
	if w.outstanding == 0 {
		w.barrier()
	}
}

// barrier runs when the current chain's lookups and fetches have all
// completed: XOR the fetched chunks, then write the recovered chunk to
// the failed disk's spare area.
func (w *worker) barrier() {
	e := w.engine
	sel := w.curSel
	e.xorChunks += uint64(len(sel.Fetch))
	xor := e.cfg.XORPerChunk * sim.Time(len(sel.Fetch))
	if e.tr != nil {
		e.tr.Emit(obs.Event{Name: "xor", Cat: obs.CatXOR, Ph: obs.PhaseSpan,
			Track: w.lane(), TS: e.sim.Now(), Dur: xor,
			Args: []obs.Arg{{Key: "chunks", Val: int64(len(sel.Fetch))}}})
	}
	e.sim.Schedule(xor, w.afterXORFn)
}

// afterXOR runs when the chain's XOR compute charge has elapsed.
func (w *worker) afterXOR() {
	if err := w.engine.array.WriteSpareReq(w.curSel.Lost.Col, &w.spareReq); err != nil {
		panic(fmt.Sprintf("rebuild: spare write failed: %v", err))
	}
}
