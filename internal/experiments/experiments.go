// Package experiments defines the paper's evaluation artefacts — Figure
// 8 (hit ratio), Figure 9 (disk reads), Figure 10 (response time),
// Figure 11 (reconstruction time), Table IV (FBF overhead) and Table V
// (maximum improvements) — as parameterized sweeps over the
// reconstruction engine, with text/CSV renderers that print the same
// rows and series the paper reports.
package experiments

import (
	"fmt"

	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/rebuild"
	"fbf/internal/trace"
)

// Params configures a sweep. The zero value is unusable; start from
// DefaultParams (the paper's configuration scaled to a workstation) and
// override.
type Params struct {
	Codes        []string // code family names
	Primes       []int    // prime parameter values
	Policies     []string // cache policies to compare
	CacheSizesMB []int    // total cache sizes in MB (the paper's x axes)

	ChunkSizeKB int // paper: 32 KB
	Workers     int // paper: 128 parallel recovery processes
	Groups      int // partial stripe error groups per run
	Stripes     int // stripes on the simulated array
	Seed        int64
	Strategy    core.Strategy
	Dist        trace.SizeDist

	// Parallelism bounds how many sweep points run concurrently: 0
	// means GOMAXPROCS, 1 forces the serial path. Every run is an
	// isolated deterministic simulation, so the results (values and
	// order) are identical at any parallelism level.
	Parallelism int
	// Progress, when non-nil, is called after each completed run with
	// (completed, total) for the current sweep. Calls are serialized
	// but may come from worker goroutines.
	Progress func(done, total int)
}

// validate checks the fields an artefact uses: the code and prime axes,
// the policy and cache-size lists it actually runs, and the engine
// parameters. Every artefact calls it once, through runs, so a bad field
// fails fast with a clear error instead of deep inside a run (or as a
// division by zero when Params was built from the zero value).
func (p Params) validate(policies []string, sizesMB []int) error {
	switch {
	case len(p.Codes) == 0:
		return fmt.Errorf("experiments: no codes configured")
	case len(p.Primes) == 0:
		return fmt.Errorf("experiments: no primes configured")
	case len(policies) == 0:
		return fmt.Errorf("experiments: no cache policies configured")
	case len(sizesMB) == 0:
		return fmt.Errorf("experiments: no cache sizes configured")
	case p.ChunkSizeKB <= 0:
		return fmt.Errorf("experiments: non-positive chunk size %d KB (start from DefaultParams, not the zero value)", p.ChunkSizeKB)
	case p.Workers <= 0:
		return fmt.Errorf("experiments: non-positive worker count %d", p.Workers)
	case p.Groups <= 0:
		return fmt.Errorf("experiments: non-positive group count %d", p.Groups)
	case p.Stripes <= 0:
		return fmt.Errorf("experiments: non-positive stripe count %d", p.Stripes)
	case p.Parallelism < 0:
		return fmt.Errorf("experiments: negative parallelism %d", p.Parallelism)
	}
	for _, mb := range sizesMB {
		if mb < 0 {
			return fmt.Errorf("experiments: negative cache size %d MB", mb)
		}
	}
	return nil
}

// DefaultParams returns the paper's evaluation configuration, with the
// group count scaled down from a full 1 TB disk to a tractable run
// (ratios and crossovers are scale invariant; raise Groups for
// paper-scale runs).
func DefaultParams() Params {
	return Params{
		Codes:        []string{"star", "triplestar", "tip", "hdd1"},
		Primes:       []int{7, 11, 13},
		Policies:     []string{"fifo", "lru", "lfu", "arc", "fbf"},
		CacheSizesMB: []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048},
		ChunkSizeKB:  32,
		Workers:      128,
		Groups:       256,
		Stripes:      1 << 14,
		Seed:         1,
		Strategy:     core.StrategyLooped,
	}
}

// CacheChunks converts a cache size in MB to chunks. With a
// non-positive ChunkSizeKB (a Params built from the zero value rather
// than DefaultParams) it returns 0 instead of dividing by zero; every
// artefact rejects such Params up front (see validate).
func (p Params) CacheChunks(sizeMB int) int {
	if p.ChunkSizeKB <= 0 {
		return 0
	}
	return sizeMB * 1024 / p.ChunkSizeKB
}

// Point is one sweep measurement.
type Point struct {
	Code    string
	P       int
	Policy  string
	CacheMB int
	Result  *rebuild.Result
}

// sweepPrep is the shared read-only input of every run of one
// (code, prime) pair: the code and the generated error trace. One prep
// is shared by all that pair's policy/size points — concurrent
// rebuild.Run calls only read the code and the trace
// (see rebuild.Run's concurrency contract), so regenerating the trace
// per point would be pure waste.
type sweepPrep struct {
	codeName string
	prime    int
	code     *codes.Code
	errors   []core.PartialStripeError
}

// prepareTraces builds the code and generates the error trace for
// every (code, prime) pair of the sweep, in parallel. The returned
// slice is ordered codes-major, matching the sweep enumeration.
func prepareTraces(p Params) ([]sweepPrep, error) {
	preps := make([]sweepPrep, 0, len(p.Codes)*len(p.Primes))
	for _, codeName := range p.Codes {
		for _, prime := range p.Primes {
			preps = append(preps, sweepPrep{codeName: codeName, prime: prime})
		}
	}
	err := forEachIndexed(p.parallelism(), len(preps), nil, func(i int) error {
		code, err := codes.New(preps[i].codeName, preps[i].prime)
		if err != nil {
			return err
		}
		errors, err := trace.Generate(code, trace.Config{
			Groups:  p.Groups,
			Stripes: p.Stripes,
			Seed:    p.Seed,
			Disk:    -1,
			Dist:    p.Dist,
		})
		if err != nil {
			return err
		}
		preps[i].code, preps[i].errors = code, errors
		return nil
	})
	if err != nil {
		return nil, err
	}
	return preps, nil
}

// runConfig is the engine configuration of one sweep point.
func (p Params) runConfig(prep sweepPrep, policy string, sizeMB int) rebuild.Config {
	return rebuild.Config{
		Code:        prep.code,
		Policy:      policy,
		Strategy:    p.Strategy,
		Workers:     p.Workers,
		CacheChunks: p.CacheChunks(sizeMB),
		ChunkSize:   p.ChunkSizeKB * 1024,
		Stripes:     p.Stripes,
	}
}

// runs is the executor behind every simulated artefact. It validates p
// against the policies and sizes the artefact runs, generates each
// (code, prime)'s trace once (prepareTraces) and calls job once per
// point, in the serial enumeration order (codes, then primes, then
// policies, then sizes), with that point's engine configuration
// (runConfig) and trace. Jobs run concurrently up to Params.Parallelism
// on forEachIndexed; each writes only its own slot of the returned
// rows, so their order and values do not depend on the schedule. A
// job's error is wrapped with its point.
func runs[T any](p Params, policies []string, sizesMB []int, job func(pt Point, cfg rebuild.Config, errors []core.PartialStripeError) (T, error)) ([]T, error) {
	if err := p.validate(policies, sizesMB); err != nil {
		return nil, err
	}
	preps, err := prepareTraces(p)
	if err != nil {
		return nil, err
	}
	perPrep := len(policies) * len(sizesMB)
	out := make([]T, len(preps)*perPrep)
	err = forEachIndexed(p.parallelism(), len(out), p.Progress, func(i int) error {
		prep := preps[i/perPrep]
		pt := Point{Code: prep.codeName, P: prep.prime, Policy: policies[(i%perPrep)/len(sizesMB)], CacheMB: sizesMB[i%len(sizesMB)]}
		row, err := job(pt, p.runConfig(prep, pt.Policy, pt.CacheMB), prep.errors)
		if err != nil {
			return fmt.Errorf("experiments: %s(p=%d) %s %dMB: %w", pt.Code, pt.P, pt.Policy, pt.CacheMB, err)
		}
		out[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Sweep runs the full cross product of codes, primes, policies and
// cache sizes. The same seed gives every policy the same error trace
// for a given (code, prime), so policies are directly comparable.
//
// The points come back in the serial enumeration order with identical
// Result metrics at any Params.Parallelism (see runs), so
// BuildFigure's order-dependent series assembly is byte-stable.
func Sweep(p Params) ([]Point, error) {
	return runs(p, p.Policies, p.CacheSizesMB, func(pt Point, cfg rebuild.Config, errors []core.PartialStripeError) (Point, error) {
		res, err := rebuild.Run(cfg, errors)
		pt.Result = res
		return pt, err
	})
}

// Metric extracts a scalar from a result.
type Metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Value  func(*rebuild.Result) float64
}

// The four metrics of the paper's Section IV.
var (
	MetricHitRatio = Metric{
		Name: "hit ratio", Unit: "", Better: "higher",
		Value: func(r *rebuild.Result) float64 { return r.HitRatio() },
	}
	MetricDiskReads = Metric{
		Name: "disk reads", Unit: "ops", Better: "lower",
		Value: func(r *rebuild.Result) float64 { return float64(r.DiskReads) },
	}
	MetricResponse = Metric{
		Name: "avg response time", Unit: "ms", Better: "lower",
		Value: func(r *rebuild.Result) float64 { return r.AvgResponse().Milliseconds() },
	}
	MetricReconTime = Metric{
		Name: "reconstruction time", Unit: "ms", Better: "lower",
		Value: func(r *rebuild.Result) float64 { return r.Makespan.Milliseconds() },
	}
)

// Panel is one sub-plot of a figure: a (code, prime) pair with one
// series per policy over the cache-size axis.
type Panel struct {
	Code   string
	P      int
	Sizes  []int                // MB, the x axis
	Series map[string][]float64 // policy -> y values aligned with Sizes
}

// Figure is a reproduced paper figure.
type Figure struct {
	ID     string
	Title  string
	Metric Metric
	Panels []Panel
}

// BuildFigure groups sweep points into panels for the given metric.
func BuildFigure(id, title string, metric Metric, points []Point, params Params) *Figure {
	fig := &Figure{ID: id, Title: title, Metric: metric}
	type key struct {
		code string
		p    int
	}
	index := map[key]*Panel{}
	var order []key
	for _, pt := range points {
		k := key{pt.Code, pt.P}
		panel, ok := index[k]
		if !ok {
			panel = &Panel{Code: pt.Code, P: pt.P, Sizes: params.CacheSizesMB, Series: map[string][]float64{}}
			index[k] = panel
			order = append(order, k)
		}
		panel.Series[pt.Policy] = append(panel.Series[pt.Policy], metric.Value(pt.Result))
	}
	for _, k := range order {
		fig.Panels = append(fig.Panels, *index[k])
	}
	return fig
}
