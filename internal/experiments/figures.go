package experiments

import (
	"fmt"
	"time"

	"fbf/internal/core"
	"fbf/internal/rebuild"
	"fbf/internal/stats"
)

// TIPPrimes returns the prime axis Figures 9 and 11 and Table IV take
// when Params sets none: the paper's TIP-code panels, P in {5, 7, 11, 13}.
func TIPPrimes() []int { return []int{5, 7, 11, 13} }

// TIPGrid is the sweep behind Figures 9 and 11: p restricted to the TIP
// code, at TIPPrimes unless p sets its own primes.
func TIPGrid(p Params) Params {
	p.Codes = []string{"tip"}
	if len(p.Primes) == 0 {
		p.Primes = TIPPrimes()
	}
	return p
}

// figures are the paper's four figures, each a view of one metric over a
// sweep's points: Figures 8 and 10 of one sweep over the codes, Figures
// 9 and 11 of one over TIPGrid.
var figures = map[int]struct {
	id, title string
	metric    Metric
}{
	8:  {"fig8", "Cache Hit Ratio During Partial Stripe Reconstruction", MetricHitRatio},
	9:  {"fig9", "Read Operations During Partial Stripe Reconstruction (TIP)", MetricDiskReads},
	10: {"fig10", "Average Response Time of Partial Stripe Reconstruction", MetricResponse},
	11: {"fig11", "Partial Stripe Reconstruction Time (TIP)", MetricReconTime},
}

// FigureOf builds figure n (8, 9, 10 or 11) from the points of the sweep
// p ran, so one sweep can feed several figures and Table V.
func FigureOf(n int, points []Point, p Params) (*Figure, error) {
	f, ok := figures[n]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown figure %d (have 8, 9, 10, 11)", n)
	}
	return BuildFigure(f.id, f.title, f.metric, points, p), nil
}

// sweepFigure runs p's sweep and builds figure n from it.
func sweepFigure(n int, p Params) (*Figure, error) {
	points, err := Sweep(p)
	if err != nil {
		return nil, err
	}
	return FigureOf(n, points, p)
}

// Fig8 reproduces Figure 8: cache hit ratio during partial stripe
// reconstruction across erasure codes and primes, as a function of
// cache size.
func Fig8(p Params) (*Figure, error) { return sweepFigure(8, p) }

// Fig9 reproduces Figure 9: number of disk read operations during
// recovery, TIP-code (TIPGrid).
func Fig9(p Params) (*Figure, error) { return sweepFigure(9, TIPGrid(p)) }

// Fig10 reproduces Figure 10: average response time of the disk array
// during recovery, across codes and primes.
func Fig10(p Params) (*Figure, error) { return sweepFigure(10, p) }

// Fig11 reproduces Figure 11: total partial stripe reconstruction time,
// TIP-code (TIPGrid).
func Fig11(p Params) (*Figure, error) { return sweepFigure(11, TIPGrid(p)) }

// OverheadRow is one cell group of Table IV: FBF's temporal overhead for
// one (code, prime).
type OverheadRow struct {
	Code     string
	P        int
	Overhead time.Duration // mean scheme-generation wall time per group
	Percent  float64       // overhead as % of per-group reconstruction time
}

// Table4 reproduces Table IV: the temporal overhead of FBF's priority
// generation, measured as real wall time of scheme generation, compared
// against the simulated per-group reconstruction time. It runs FBF at
// 256 MB, one row per (code, prime) at TIPPrimes unless p sets its own,
// codes-major; RenderTable4 groups the rows by prime.
//
// Note the measured scheme-generation wall time is real time on a
// possibly-contended core, so unlike the simulated metrics it can
// fluctuate run to run (at any parallelism level, including 1).
func Table4(p Params) ([]OverheadRow, error) {
	if len(p.Primes) == 0 {
		p.Primes = TIPPrimes()
	}
	return runs(p, []string{"fbf"}, []int{256}, func(pt Point, cfg rebuild.Config, errors []core.PartialStripeError) (OverheadRow, error) {
		res, err := rebuild.Run(cfg, errors)
		if err != nil {
			return OverheadRow{}, err
		}
		// Per-group reconstruction time: total busy reconstruction
		// spread over the groups. With W workers running in parallel,
		// aggregate reconstruction work ≈ makespan * effective workers.
		workers := p.Workers
		if workers > res.Groups {
			workers = res.Groups
		}
		perGroupMs := res.Makespan.Milliseconds() * float64(workers) / float64(res.Groups)
		overheadMs := float64(res.AvgSchemeGen().Nanoseconds()) / 1e6
		pct := 0.0
		if perGroupMs > 0 {
			pct = overheadMs / perGroupMs * 100
		}
		return OverheadRow{Code: pt.Code, P: pt.P, Overhead: res.AvgSchemeGen(), Percent: pct}, nil
	})
}

// Improvement is one cell of Table V: FBF's best improvement over one
// baseline policy on one metric, across the whole sweep.
type Improvement struct {
	Metric   string
	Baseline string
	Percent  float64 // paper convention: hit ratio as gain %, others as reduction %
	At       Point   // the sweep point where the maximum was attained
}

// Table5 reproduces Table V: the maximum improvement of FBF over each
// classic policy on the four metrics, scanned over the full sweep.
// Points are grouped by (code, prime, cache size); FBF is compared to
// each baseline within a group.
func Table5(points []Point) []Improvement {
	type key struct {
		code    string
		p       int
		cacheMB int
	}
	groups := map[key]map[string]*rebuild.Result{}
	var fbfPoints []Point
	for _, pt := range points {
		k := key{pt.Code, pt.P, pt.CacheMB}
		if groups[k] == nil {
			groups[k] = map[string]*rebuild.Result{}
		}
		groups[k][pt.Policy] = pt.Result
		if pt.Policy == "fbf" {
			fbfPoints = append(fbfPoints, pt)
		}
	}
	metrics := []Metric{MetricHitRatio, MetricDiskReads, MetricResponse, MetricReconTime}
	best := map[string]map[string]*Improvement{} // metric -> baseline -> best
	for _, m := range metrics {
		best[m.Name] = map[string]*Improvement{}
	}
	for _, fp := range fbfPoints {
		k := key{fp.Code, fp.P, fp.CacheMB}
		for baseline, baseRes := range groups[k] {
			if baseline == "fbf" {
				continue
			}
			for _, m := range metrics {
				baseVal := m.Value(baseRes)
				fbfVal := m.Value(fp.Result)
				var pct float64
				if m.Better == "higher" {
					pct = stats.Gain(baseVal, fbfVal) * 100
				} else {
					pct = stats.Improvement(baseVal, fbfVal) * 100
				}
				cur := best[m.Name][baseline]
				if cur == nil || pct > cur.Percent {
					best[m.Name][baseline] = &Improvement{Metric: m.Name, Baseline: baseline, Percent: pct, At: fp}
				}
			}
		}
	}
	var out []Improvement
	for _, m := range metrics {
		for _, baseline := range []string{"fifo", "lru", "lfu", "arc"} {
			if imp := best[m.Name][baseline]; imp != nil {
				out = append(out, *imp)
			}
		}
	}
	return out
}

// SchemeComparison is one row of the scheme ablation (the design choice
// behind Figure 2): unique chunk reads under each chain-selection
// strategy.
type SchemeComparison struct {
	Code               string
	P                  int
	Typical            float64 // mean unique fetches per group
	Looped             float64
	Greedy             float64
	LoopedSavingPct    float64 // vs typical
	GreedyExtraSavePct float64 // vs looped
}

// SchemeAblation quantifies how much read I/O the FBF chain-selection
// (looping) saves over typical horizontal-only recovery, and what the
// greedy upper bound adds. It only plans schemes, so it runs one point
// per (code, prime) and leaves that point's policy and cache size
// unused.
func SchemeAblation(p Params) ([]SchemeComparison, error) {
	return runs(p, []string{"fbf"}, []int{0}, func(pt Point, cfg rebuild.Config, errors []core.PartialStripeError) (SchemeComparison, error) {
		means := map[core.Strategy]float64{}
		for _, strategy := range []core.Strategy{core.StrategyTypical, core.StrategyLooped, core.StrategyGreedy} {
			total := 0
			for _, e := range errors {
				s, err := core.GenerateScheme(cfg.Code, e, strategy)
				if err != nil {
					return SchemeComparison{}, err
				}
				total += s.UniqueFetches()
			}
			means[strategy] = float64(total) / float64(len(errors))
		}
		return SchemeComparison{
			Code: pt.Code, P: pt.P,
			Typical: means[core.StrategyTypical], Looped: means[core.StrategyLooped], Greedy: means[core.StrategyGreedy],
			LoopedSavingPct:    stats.Improvement(means[core.StrategyTypical], means[core.StrategyLooped]) * 100,
			GreedyExtraSavePct: stats.Improvement(means[core.StrategyLooped], means[core.StrategyGreedy]) * 100,
		}, nil
	})
}
