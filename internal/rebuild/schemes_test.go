package rebuild

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/obs"
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
