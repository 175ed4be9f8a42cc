package rebuild

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/obs"
	"fbf/internal/sim"
)

// settle waits up to a second for the goroutine count to fall back to
// start.
func settle(t *testing.T, start int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > start; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), start)
		}
	}
}

// panicAfter is a Tracer that panics on its n-th event.
type panicAfter struct{ n int }

func (p *panicAfter) Emit(obs.Event) {
	if p.n--; p.n == 0 {
		panic("tracer gave up")
	}
}

// TestRunLeavesNoGoroutine pins the SOR scheme producer's lifetime: Run
// joins it on a normal return, on an empty trace, and when the event
// loop panics while the producer still has batches to hand over.
func TestRunLeavesNoGoroutine(t *testing.T) {
	code := codes.MustNew("tip", 5)
	// More groups than the producer can hold ahead, so it is blocked on
	// its channel when the loop stops early.
	long := genErrors(t, code, schemeBatch*(schemeDepth+3)+5, 2048, 1)
	cfg := Config{Code: code, Policy: "fbf", Strategy: core.StrategyLooped, Workers: 8, CacheChunks: 64, Stripes: 2048}

	t.Run("normal", func(t *testing.T) {
		start := runtime.NumGoroutine()
		res, err := Run(cfg, long)
		if err != nil {
			t.Fatal(err)
		}
		if res.Groups != len(long) || res.SchemeGenWall <= 0 {
			t.Fatalf("Groups %d of %d, SchemeGenWall %v", res.Groups, len(long), res.SchemeGenWall)
		}
		settle(t, start)
	})
	t.Run("empty", func(t *testing.T) {
		start := runtime.NumGoroutine()
		res, err := Run(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Groups != 0 || res.SchemeGenWall != 0 {
			t.Fatalf("empty trace: Groups %d, SchemeGenWall %v", res.Groups, res.SchemeGenWall)
		}
		settle(t, start)
	})
	t.Run("tracer-panics", func(t *testing.T) {
		start := runtime.NumGoroutine()
		panicked := func() (v any) {
			defer func() { v = recover() }()
			c := cfg
			c.Tracer = &panicAfter{n: 50}
			_, _ = Run(c, long)
			return nil
		}()
		if fmt.Sprint(panicked) != "tracer gave up" {
			t.Fatalf("recovered %v, want the tracer's panic", panicked)
		}
		settle(t, start)
	})
}

// TestSORSteadyStateAllocs pins the producer's recycling: once the run's
// schemes and batches are refilled rather than allocated, a warm SOR
// run's allocations barely grow with its groups: 2 000 more groups must
// cost fewer than 2 000 more allocations (generating a new scheme per
// group cost about 12 each).
func TestSORSteadyStateAllocs(t *testing.T) {
	code := codes.MustNew("tip", 7)
	cfg := Config{Code: code, Policy: "fbf", Strategy: core.StrategyLooped, Workers: 16, CacheChunks: 256, Stripes: 4096}
	mallocs := func(groups []core.PartialStripeError) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg, groups); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	const short, long = 2000, 4000
	groups := genErrors(t, code, long, cfg.Stripes, 1)
	mallocs(groups) // warm-up
	a, b := mallocs(groups[:short]), mallocs(groups)
	perGroup := (float64(b) - float64(a)) / (long - short)
	if perGroup >= 1 {
		t.Errorf("%d groups: %d allocations, %d groups: %d; %.2f per extra group, want under 1", short, a, long, b, perGroup)
	}
	t.Logf("%d groups: %d allocations, %d groups: %d; %.2f per extra group", short, a, long, b, perGroup)
}

// TestRunAppProbesInstalledSchemes runs Config.App with every probe on a
// stripe under repair (ErrorLocality 1), so probes hit FBF between a
// worker's groups, while its last scheme is still installed, over more
// groups than the producer's pool holds. A scheme recycled before its
// worker installs the next one would be refilled while probes read it:
// a race under -race and, without it, priorities from another group. The
// counts are pinned from the scheme generation before recycling.
func TestRunAppProbesInstalledSchemes(t *testing.T) {
	code := codes.MustNew("tip", 5)
	cfg := Config{Code: code, Policy: "fbf", Strategy: core.StrategyLooped, Workers: 8, CacheChunks: 64, Stripes: 2048,
		App: &AppWorkload{Requests: 20000, Interarrival: 3 * sim.Millisecond, Seed: 3, ErrorLocality: 1}}
	groups := genErrors(t, code, 3*((schemeDepth+2)*schemeBatch+cfg.Workers), cfg.Stripes, 2)
	res, err := Run(cfg, groups)
	if err != nil {
		t.Fatal(err)
	}
	got := [...]uint64{res.AppRequests, res.AppHits, res.AppEvictions, uint64(res.AppSumResponse), res.Cache.Hits, res.Cache.Misses, res.Cache.Evictions, res.DiskReads, uint64(res.Makespan)}
	want := [...]uint64{20000, 38, 19941, 1195534330000, 2400, 14488, 14445, 34450, 70189420000}
	if got != want {
		t.Errorf("app requests, hits, evictions, response; recovery hits, misses, evictions; disk reads; makespan:\n got %v\nwant %v", got, want)
	}
}
