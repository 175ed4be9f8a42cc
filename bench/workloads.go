package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/grid"
	"fbf/internal/rebuild"
	"fbf/internal/store"
	"fbf/internal/trace"
)

// scale is the geometry the workloads run at. paperScale is what
// BENCHMARK.json measures; the tier-1 test runs the same code at
// tinyScale.
type scale struct {
	p, chunkSize   int
	killStripes    int     // mem-kill3
	dirStripes     int     // dir-kill3-journal
	partialStripes int     // mem-partial: stripes and error groups
	simGroups      int     // sim-sor
	simStripes     int     // sim-sor
	simWorkers     int     // sim-sor
	simCache       int     // sim-sor, chunks
	calibBytes     int64   // host calibration spin
	setups         int     // set-up samples per untraced run, at least
	setupSeconds   float64 // keep sampling set-ups until this much is spent (200 samples at most)
	minReps        int     // timed repetitions per run, at least
}

var paperScale = scale{
	p: 13, chunkSize: 32 << 10,
	killStripes: 64, dirStripes: 24, partialStripes: 256,
	simGroups: 8000, simStripes: 8192, simWorkers: 64, simCache: 1024,
	calibBytes: 1 << 30, setups: 3, setupSeconds: 1, minReps: 3,
}

const (
	codeName    = "tip"
	cacheChunks = 64 // fbfctl rebuild's default
)

// workload is one named set of inputs.
type workload struct {
	name    string
	sim     bool               // rebuild.Run on the event simulator, no bytes
	dir     bool               // store.OpenDir (fsync on) + rebuild journal
	partial bool               // partial stripe errors from trace.Generate, not three dead disks
	stripes func(sc scale) int // array size
}

var workloads = []*workload{
	{name: "mem-kill3", stripes: func(sc scale) int { return sc.killStripes }},
	{name: "dir-kill3-journal", dir: true, stripes: func(sc scale) int { return sc.dirStripes }},
	{name: "mem-partial", partial: true, stripes: func(sc scale) int { return sc.partialStripes }},
	{name: "sim-sor", sim: true, stripes: func(sc scale) int { return sc.simStripes }},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sample is what one repetition yields. Everything but wall and the
// alloc counters must repeat exactly from one repetition to the next.
type sample struct {
	wall    time.Duration
	chunks  int     // chunks rebuilt (sim: chunks of the error groups)
	bytes   int64   // payload bytes rebuilt
	reads   uint64  // payload reads paid (sim: simulated disk reads)
	reconMs float64 // reconstruction time on the workload's clock: wall for real bytes, simulated for sim-sor

	attempted, failed int    // operations checked after the repetition, and how many were wrong
	why               string // first failure, for the report

	mallocs, allocBytes uint64 // runtime.MemStats deltas around the call

	svc *rebuild.ServiceResult // store workloads
	sim *rebuild.Result        // sim-sor

	run     int             // traced repetitions: the rebuild.run span
	stripes []time.Duration // traced repetitions: Progress callback times since the call began
}

// counts is the part of a sample that must be identical in every
// repetition of one configuration.
func (s *sample) counts() string {
	if s.sim != nil {
		return fmt.Sprintf("makespan=%d reads=%d cache=%+v", s.sim.Makespan, s.sim.DiskReads, s.sim.Cache)
	}
	r := s.svc
	return fmt.Sprintf("chunks=%d reads=%d verify=%d hits=%d misses=%d decoded=%d esc=%d",
		r.ChunksRebuilt, r.DiskReads, r.VerifyReads, r.CacheHits, r.CacheMisses, r.ChunksDecoded, r.Escalations)
}

// row is one configuration of the traced run: the fbfctl-rebuild
// defaults with one option the engine already has switched.
type row struct {
	name    string
	service func(cfg *rebuild.ServiceConfig)
	sim     func(cfg *rebuild.Config)
}

// subject is a set-up workload: one damaged array, or one error trace
// for the simulator.
type subject interface {
	// rep runs one repetition under row r (nil: defaults), timing only
	// the engine call; afterwards it checks the output and puts the
	// damage back. A non-nil tracer installs the timing backend and
	// records the repetition's spans.
	rep(r *row, tr *tracer) (sample, error)
	close() error
}

// setUp builds workload w's inputs from seed and returns them with the
// time that took.
func setUp(w *workload, sc scale, seed int64, workdir string) (subject, time.Duration, error) {
	if w.sim {
		return setUpSim(sc, seed)
	}
	return setUpArray(w, sc, seed, workdir)
}

// array is a store workload's subject: an initialised backend, the
// damage injected into it, and the bytes the damage destroyed.
type array struct {
	code    *codes.Code
	m       store.ArrayManifest
	seed    int64
	backend store.Backend
	root    string // dir workloads: removed by close
	journal string // dir workloads: ServiceConfig.JournalPath

	lost  []store.Addr // stripe-major
	truth [][]byte     // truth[i] is the payload lost[i] held

	maxSpans int // most spans one traced repetition has recorded so far
}

func setUpArray(w *workload, sc scale, seed int64, workdir string) (*array, time.Duration, error) {
	start := time.Now()
	code, err := codes.New(codeName, sc.p)
	if err != nil {
		return nil, 0, err
	}
	a := &array{code: code, seed: seed, m: store.ArrayManifest{
		Code: codeName, P: sc.p, Disks: code.Disks(), Rows: code.Rows(),
		Stripes: w.stripes(sc), ChunkSize: sc.chunkSize,
	}}
	if w.dir {
		if a.root, err = os.MkdirTemp(workdir, "array-"); err != nil {
			return nil, 0, err
		}
		a.journal = filepath.Join(a.root, "rebuild.journal")
		if a.backend, err = store.OpenDir(filepath.Join(a.root, "store")); err != nil {
			return nil, 0, err
		}
	} else {
		a.backend = store.NewMem()
	}
	if err := rebuild.InitStore(a.backend, a.m, seed); err != nil {
		return nil, 0, err
	}
	if w.partial {
		errs, err := trace.Generate(code, trace.Config{
			Groups: a.m.Stripes, Stripes: a.m.Stripes, Seed: seed, Disk: -1, Dist: trace.SizeUniform,
		})
		if err != nil {
			return nil, 0, err
		}
		for _, e := range errs {
			for _, c := range e.LostCells() {
				a.lost = append(a.lost, rebuild.AddrOf(e.Stripe, c))
			}
		}
	} else {
		// The same three disks for every seed: read counts differ by a
		// quarter between triples of TIP columns, which would drown a
		// 10 % bound in seed-to-seed spread. The seed still fills the
		// array.
		step := a.m.Disks / 3
		for s := 0; s < a.m.Stripes; s++ {
			for d := 1; d < a.m.Disks && d <= 1+2*step; d += step {
				for r := 0; r < a.m.Rows; r++ {
					a.lost = append(a.lost, store.Addr{Disk: d, Stripe: s, Chunk: r})
				}
			}
		}
	}
	if err := a.inject(); err != nil {
		return nil, 0, err
	}
	took := time.Since(start)

	// Ground truth for the output check, recomputed from the seed and
	// not read back from the store.
	buf := code.NewStripe(sc.chunkSize)
	have := -1
	for _, addr := range a.lost {
		if addr.Stripe != have {
			have = addr.Stripe
			code.MaterializeStripeInto(buf, rebuild.StripeSeed(seed, have))
		}
		a.truth = append(a.truth, bytes.Clone(buf[code.CellIndex(cellOf(addr))]))
	}
	return a, took, nil
}

// inject deletes the lost chunks. After a repetition, one the rebuild
// failed to write back is already absent, which check has counted.
func (a *array) inject() error {
	for _, addr := range a.lost {
		if err := a.backend.Delete(addr); err != nil && !store.IsNotFound(err) {
			return fmt.Errorf("injecting damage: %w", err)
		}
	}
	return nil
}

func (a *array) close() error {
	if a.root == "" {
		return nil
	}
	return os.RemoveAll(a.root)
}

func (a *array) rep(r *row, tr *tracer) (sample, error) {
	cfg := rebuild.ServiceConfig{
		Backend: a.backend, Manifest: a.m,
		Policy: "fbf", Strategy: core.StrategyLooped, CacheChunks: cacheChunks,
		JournalPath: a.journal,
	}
	var s sample
	if tr != nil {
		rep := tr.begin("bench.rep", 0)
		defer tr.end(rep)
		s.run = tr.begin("rebuild.run", rep)
		cfg.Backend = &timedBackend{Backend: a.backend, tr: tr, parent: s.run}
		s.stripes = make([]time.Duration, 0, a.m.Stripes)
		tr.reserve(2 * a.maxSpans)
	}
	if r != nil {
		r.service(&cfg)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if tr != nil {
		cfg.Progress = func(rebuild.Progress) { s.stripes = append(s.stripes, time.Since(start)) }
	}
	res, err := rebuild.RunService(cfg)
	s.wall = time.Since(start)
	if tr != nil {
		tr.window(s.run, start, s.wall)
		a.maxSpans = max(a.maxSpans, len(tr.spans)-s.run)
	}
	runtime.ReadMemStats(&after)
	s.mallocs, s.allocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc

	s.attempted = len(a.lost)
	s.failed, s.why = a.check(res, err)
	if res == nil {
		return s, fmt.Errorf("RunService: %w", err)
	}
	s.svc = res
	s.chunks, s.bytes = res.ChunksRebuilt, res.BytesWritten
	s.reads = res.DiskReads + res.VerifyReads
	s.reconMs = float64(s.wall) / float64(time.Millisecond)
	return s, a.inject()
}

// check is the output check of one repetition: how many of the lost
// chunks are not byte-identical to ground truth. A rebuild that
// errored, lost data, left the store damaged or left its journal behind
// fails every chunk.
func (a *array) check(res *rebuild.ServiceResult, runErr error) (failed int, why string) {
	all := len(a.lost)
	switch {
	case runErr != nil:
		return all, runErr.Error()
	case res.DataLoss:
		return all, fmt.Sprintf("data loss: %d chunks", len(res.Lost))
	case res.ChunksRebuilt != all:
		return all, fmt.Sprintf("rebuilt %d chunks of %d", res.ChunksRebuilt, all)
	}
	if a.journal != "" {
		if _, err := os.Stat(a.journal); err == nil {
			return all, "journal left behind"
		}
	}
	report, err := rebuild.ScanStore(a.backend, a.m, false)
	if err != nil {
		return all, err.Error()
	}
	if !report.Clean() {
		why = fmt.Sprintf("scan after rebuild: %d chunks still lost", report.LostChunks())
		failed = all
	}
	buf := make([]byte, a.m.ChunkSize)
	wrong := 0
	for i, addr := range a.lost {
		n, err := a.backend.ReadChunk(addr, buf)
		if err != nil || !bytes.Equal(buf[:n], a.truth[i]) {
			if wrong++; why == "" {
				why = fmt.Sprintf("%v differs from ground truth", addr)
			}
		}
	}
	return max(failed, wrong), why
}

// simTrace is sim-sor's subject: a code and an error trace.
type simTrace struct {
	sc     scale
	code   *codes.Code
	errors []core.PartialStripeError
	chunks int
}

func setUpSim(sc scale, seed int64) (*simTrace, time.Duration, error) {
	start := time.Now()
	code, err := codes.New(codeName, sc.p)
	if err != nil {
		return nil, 0, err
	}
	errs, err := trace.Generate(code, trace.Config{
		Groups: sc.simGroups, Stripes: sc.simStripes, Seed: seed, Disk: -1, Dist: trace.SizeUniform,
	})
	if err != nil {
		return nil, 0, err
	}
	t := &simTrace{sc: sc, code: code, errors: errs}
	for _, e := range errs {
		t.chunks += e.Size
	}
	return t, time.Since(start), nil
}

func (t *simTrace) close() error { return nil }

func (t *simTrace) rep(r *row, tr *tracer) (sample, error) {
	cfg := rebuild.Config{
		Code: t.code, Policy: "fbf", Strategy: core.StrategyLooped,
		Workers: t.sc.simWorkers, CacheChunks: t.sc.simCache,
		ChunkSize: t.sc.chunkSize, Stripes: t.sc.simStripes,
	}
	if r != nil {
		r.sim(&cfg)
	}
	var s sample
	if tr != nil {
		rep := tr.begin("bench.rep", 0)
		defer tr.end(rep)
		s.run = tr.begin("rebuild.run", rep)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := rebuild.Run(cfg, t.errors)
	s.wall = time.Since(start)
	if tr != nil {
		tr.window(s.run, start, s.wall)
	}
	runtime.ReadMemStats(&after)
	s.mallocs, s.allocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	if err != nil {
		return s, fmt.Errorf("rebuild.Run: %w", err)
	}
	s.sim = res
	s.chunks, s.bytes = t.chunks, int64(t.chunks)*int64(t.sc.chunkSize)
	s.reads = res.DiskReads
	s.reconMs = res.Makespan.Milliseconds()

	// An operation is one error group. The simulator is deterministic:
	// its output check is that counts() repeats, which tally.add does.
	s.attempted = len(t.errors)
	if res.DataLoss {
		s.failed, s.why = s.attempted, "simulated data loss"
	}
	return s, nil
}

// cellOf inverts rebuild.AddrOf.
func cellOf(a store.Addr) grid.Coord { return grid.Coord{Row: a.Chunk, Col: a.Disk} }
