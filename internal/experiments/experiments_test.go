package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"fbf/internal/core"
	"fbf/internal/trace"
)

// smallParams keeps experiment tests fast while preserving the regime
// the paper targets (per-worker cache smaller than a group's working
// set at the small end of the sweep).
func smallParams() Params {
	p := DefaultParams()
	p.Codes = []string{"tip"}
	p.Primes = []int{7}
	p.Policies = []string{"lru", "fbf"}
	p.CacheSizesMB = []int{1, 8, 512} // 4, 32, 2048 chunks per worker
	p.Workers = 8
	p.Groups = 32
	p.Stripes = 512
	return p
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if p.ChunkSizeKB != 32 {
		t.Errorf("chunk size %d KB, paper uses 32 KB", p.ChunkSizeKB)
	}
	if p.Workers != 128 {
		t.Errorf("workers %d, paper uses 128", p.Workers)
	}
	if len(p.Codes) != 4 {
		t.Errorf("codes %v, paper compares 4", p.Codes)
	}
	if p.Strategy != core.StrategyLooped {
		t.Error("default strategy should be the FBF looped scheme")
	}
	if p.Dist != trace.SizeUniform {
		t.Error("default size distribution should be uniform, like the paper")
	}
	if got := p.CacheChunks(8); got != 256 {
		t.Errorf("8MB = %d chunks, want 256", got)
	}
}

func TestSweepShape(t *testing.T) {
	p := smallParams()
	points, err := Sweep(p)
	if err != nil {
		t.Fatal(err)
	}
	want := len(p.Codes) * len(p.Primes) * len(p.Policies) * len(p.CacheSizesMB)
	if len(points) != want {
		t.Fatalf("got %d points, want %d", len(points), want)
	}
	// Same (code,p) trace: total requests equal across policies and
	// cache sizes for the looped strategy.
	base := points[0].Result.TotalRequests
	for _, pt := range points {
		if pt.Result.TotalRequests != base {
			t.Fatalf("request counts differ across sweep: %d vs %d", pt.Result.TotalRequests, base)
		}
	}
}

// TestFiguresShareRuns pins that a figure is a view of the sweep, not a
// run of its own: every Figure 8 value is the hit ratio of the Figure 10
// sweep's run at the same point, and every Figure 9 value the disk reads
// of the Figure 11 sweep's. Spare writes change which error groups share
// a cache partition, so a figure that skipped them would disagree here.
func TestFiguresShareRuns(t *testing.T) {
	p := goldenParams()
	p.Primes = []int{5, 7}
	p.Policies = []string{"lfu", "arc", "fbf"}
	p.CacheSizesMB = []int{1, 2, 4}
	p.Workers = 4
	p.Groups = 48
	for _, c := range []struct {
		fig    func(Params) (*Figure, error)
		grid   Params // the sweep of the figure's partner, Figure 10 or 11
		metric Metric
	}{
		{Fig8, p, MetricHitRatio},
		{Fig9, TIPGrid(p), MetricDiskReads},
	} {
		fig, err := c.fig(p)
		if err != nil {
			t.Fatal(err)
		}
		points, err := Sweep(c.grid)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{}
		for _, panel := range fig.Panels {
			for policy, series := range panel.Series {
				for i, v := range series {
					got[fmt.Sprintf("%s(p=%d) %s %dMB", panel.Code, panel.P, policy, panel.Sizes[i])] = v
				}
			}
		}
		if len(got) != len(points) {
			t.Fatalf("%s has %d values, its partner's sweep %d points", fig.ID, len(got), len(points))
		}
		differ := 0
		for _, pt := range points {
			key := fmt.Sprintf("%s(p=%d) %s %dMB", pt.Code, pt.P, pt.Policy, pt.CacheMB)
			if v, ok := got[key]; !ok || v != c.metric.Value(pt.Result) {
				t.Errorf("%s %s: %v, the sweep's run gives %v", fig.ID, key, v, c.metric.Value(pt.Result))
				differ++
			}
		}
		if differ > 0 {
			t.Errorf("%s: %d of %d points differ from the sweep's runs", fig.ID, differ, len(points))
		}
	}
}

func TestFig8ShapeAndDominance(t *testing.T) {
	p := smallParams()
	fig, err := Fig8(p)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig8" || len(fig.Panels) != 1 {
		t.Fatalf("unexpected figure %+v", fig)
	}
	panel := fig.Panels[0]
	fbf := panel.Series["fbf"]
	lru := panel.Series["lru"]
	if len(fbf) != 3 || len(lru) != 3 {
		t.Fatalf("series lengths %d/%d", len(fbf), len(lru))
	}
	// Hit ratio is monotone nondecreasing in cache size for FBF here and
	// FBF >= LRU at the tight sizes; both converge at the plateau.
	if fbf[0] < lru[0] {
		t.Errorf("tight cache: fbf %.4f < lru %.4f", fbf[0], lru[0])
	}
	if fbf[2] != lru[2] {
		t.Errorf("plateau differs: fbf %.4f lru %.4f", fbf[2], lru[2])
	}
	if fbf[0] > fbf[2]+1e-12 {
		t.Errorf("fbf hit ratio decreased with cache size: %v", fbf)
	}
}

func TestFig9UsesTIPOnly(t *testing.T) {
	p := smallParams()
	p.Codes = []string{"star", "tip"} // Fig9 must override to TIP
	p.Primes = []int{5}
	fig, err := Fig9(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, panel := range fig.Panels {
		if panel.Code != "tip" {
			t.Errorf("Fig9 panel uses %s", panel.Code)
		}
	}
	// Reads decrease (weakly) as cache grows.
	for policy, series := range fig.Panels[0].Series {
		for i := 1; i < len(series); i++ {
			if series[i] > series[i-1] {
				t.Errorf("%s reads increase with cache: %v", policy, series)
			}
		}
	}
}

func TestFig10And11Run(t *testing.T) {
	p := smallParams()
	p.CacheSizesMB = []int{8, 512}
	fig10, err := Fig10(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range fig10.Panels[0].Series {
		for _, v := range series {
			if v <= 0 {
				t.Error("response time must be positive")
			}
		}
	}
	fig11, err := Fig11(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range fig11.Panels[0].Series {
		if series[len(series)-1] > series[0] {
			t.Errorf("reconstruction time grew with cache: %v", series)
		}
	}
}

func TestTable4(t *testing.T) {
	p := smallParams()
	p.Primes = []int{5, 7}
	p.Codes = []string{"tip", "star"}
	rows, err := Table4(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Overhead <= 0 {
			t.Errorf("%s p=%d: zero overhead", r.Code, r.P)
		}
		if r.Percent <= 0 || r.Percent > 50 {
			t.Errorf("%s p=%d: implausible overhead percentage %.3f", r.Code, r.P, r.Percent)
		}
	}
}

func TestTable5(t *testing.T) {
	p := smallParams()
	p.Policies = []string{"fifo", "lru", "lfu", "arc", "fbf"}
	p.CacheSizesMB = []int{1, 2, 8, 64}
	points, err := Sweep(p)
	if err != nil {
		t.Fatal(err)
	}
	imps := Table5(points)
	if len(imps) != 16 { // 4 metrics x 4 baselines
		t.Fatalf("got %d improvements", len(imps))
	}
	for _, imp := range imps {
		if imp.Metric == MetricHitRatio.Name && imp.Percent <= 0 {
			t.Errorf("FBF hit-ratio gain over %s is %.2f%%", imp.Baseline, imp.Percent)
		}
	}
}

func TestSchemeAblation(t *testing.T) {
	p := smallParams()
	rows, err := SchemeAblation(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	r := rows[0]
	if r.Looped >= r.Typical {
		t.Errorf("looped %.2f >= typical %.2f unique fetches", r.Looped, r.Typical)
	}
	if r.Greedy > r.Looped {
		t.Errorf("greedy %.2f > looped %.2f unique fetches", r.Greedy, r.Looped)
	}
	if r.LoopedSavingPct <= 0 {
		t.Errorf("looped saving %.2f%%", r.LoopedSavingPct)
	}
}

func TestRenderers(t *testing.T) {
	p := smallParams()
	fig, err := Fig8(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderFigure(&buf, fig, p.Policies); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"FIG8", "tip (P=7)", "cache(MB)", "fbf"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered figure missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := RenderFigureCSV(&buf, fig); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(p.Policies)*len(p.CacheSizesMB) {
		t.Errorf("CSV has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "code,p,cache_mb,policy,") {
		t.Errorf("CSV header = %q", lines[0])
	}

	rows, err := Table4(Params{Codes: []string{"tip"}, Primes: []int{5}, Groups: 8, Stripes: 64, Seed: 1, Workers: 4, ChunkSizeKB: 32, Strategy: core.StrategyLooped})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := RenderTable4(&buf, rows, []string{"tip"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "TABLE IV") || !strings.Contains(buf.String(), "P = 5") {
		t.Errorf("Table IV render wrong:\n%s", buf.String())
	}

	points, err := Sweep(p)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := RenderTable5(&buf, Table5(points)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "TABLE V") {
		t.Errorf("Table V render wrong:\n%s", buf.String())
	}

	ab, err := SchemeAblation(p)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := RenderSchemeAblation(&buf, ab); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ABLATION") {
		t.Errorf("ablation render wrong:\n%s", buf.String())
	}
}

// TestUnknownCodeRejected pins that every artefact builds its codes
// with codes.New: a name that is not one of the four paper codes — "lrc"
// among them, retired with its GF(256) field — fails the run as an
// unknown code.
func TestUnknownCodeRejected(t *testing.T) {
	for _, name := range []string{"lrc", "bogus"} {
		p := smallParams()
		p.Codes = []string{name}
		_, sweepErr := Sweep(p)
		_, table4Err := Table4(p)
		_, ablationErr := SchemeAblation(p)
		for artefact, err := range map[string]error{"sweep": sweepErr, "table 4": table4Err, "ablation": ablationErr} {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown code %q", name)) {
				t.Errorf("%s over %q: err = %v, want an unknown-code error", artefact, name, err)
			}
		}
	}
}
