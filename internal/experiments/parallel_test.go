package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fbf/internal/rebuild"
)

// parallelParams is a sweep big enough to exercise the pool (several
// (code, prime) preps, many points) while staying fast.
func parallelParams() Params {
	p := DefaultParams()
	p.Codes = []string{"tip", "star"}
	p.Primes = []int{5, 7}
	p.Policies = []string{"lru", "arc", "fbf"}
	p.CacheSizesMB = []int{1, 8, 64}
	p.Workers = 8
	p.Groups = 24
	p.Stripes = 512
	return p
}

// samePoints asserts two sweeps produced identical points: same order,
// same coordinates, same Result metrics (deep equality, which covers
// every simulated counter and timing — only SchemeGenWall, a real
// wall-clock measurement, is exempt).
func samePoints(t *testing.T, serial, parallel []Point) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("point counts differ: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, pp := serial[i], parallel[i]
		if s.Code != pp.Code || s.P != pp.P || s.Policy != pp.Policy || s.CacheMB != pp.CacheMB {
			t.Fatalf("point %d coordinates differ:\n  serial   %s(p=%d) %s %dMB\n  parallel %s(p=%d) %s %dMB",
				i, s.Code, s.P, s.Policy, s.CacheMB, pp.Code, pp.P, pp.Policy, pp.CacheMB)
		}
		// Scheme generation wall time is real time, not simulated time;
		// normalize it before comparing everything else exactly.
		sr, pr := *s.Result, *pp.Result
		sr.SchemeGenWall, pr.SchemeGenWall = 0, 0
		if !reflect.DeepEqual(sr, pr) {
			t.Errorf("point %d (%s p=%d %s %dMB) results differ:\n  serial   %+v\n  parallel %+v",
				i, s.Code, s.P, s.Policy, s.CacheMB, sr, pr)
		}
	}
}

// TestSweepParallelMatchesSerial is the core determinism guarantee:
// Sweep with Parallelism > 1 returns points in identical order with
// identical Result metrics to the serial run.
func TestSweepParallelMatchesSerial(t *testing.T) {
	p := parallelParams()

	p.Parallelism = 1
	serial, err := Sweep(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 16} {
		p.Parallelism = par
		got, err := Sweep(p)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		samePoints(t, serial, got)
	}
}

// TestFiguresIdenticalAtAnyParallelism renders Figure 8 from a serial
// and a parallel sweep and requires byte-identical output — the
// ordering guarantee BuildFigure's series assembly depends on.
func TestFiguresIdenticalAtAnyParallelism(t *testing.T) {
	p := parallelParams()
	p.Codes = []string{"tip"}

	render := func(parallelism int) string {
		p.Parallelism = parallelism
		fig, err := Fig8(p)
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if err := RenderFigure(&buf, fig, p.Policies); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("rendered Figure 8 differs between serial and parallel sweeps:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestArtefactsParallelMatchSerial covers the remaining sweep-shaped
// artefacts: Table 5 input sweeps, the scheme ablation, the SOR-vs-DOR
// comparison and online recovery all return identical rows at any
// parallelism. (Table 4 measures real wall time, so only its row order
// and simulated fields could be compared; its executor is the same.)
func TestArtefactsParallelMatchSerial(t *testing.T) {
	p := parallelParams()
	p.Codes = []string{"tip"}
	p.Primes = []int{5}
	p.Policies = []string{"lru", "fbf"}

	t.Run("scheme-ablation", func(t *testing.T) {
		p := p
		p.Parallelism = 1
		serial, err := SchemeAblation(p)
		if err != nil {
			t.Fatal(err)
		}
		p.Parallelism = 8
		parallel, err := SchemeAblation(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("ablation rows differ:\nserial   %+v\nparallel %+v", serial, parallel)
		}
	})
	t.Run("modes", func(t *testing.T) {
		p := p
		p.Parallelism = 1
		serial, err := ModeComparison(p)
		if err != nil {
			t.Fatal(err)
		}
		p.Parallelism = 8
		parallel, err := ModeComparison(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("mode rows differ:\nserial   %+v\nparallel %+v", serial, parallel)
		}
	})
	t.Run("online", func(t *testing.T) {
		p := p
		app := rebuild.AppWorkload{Requests: 100, Seed: 1}
		p.Parallelism = 1
		serial, err := OnlineRecovery(p, app)
		if err != nil {
			t.Fatal(err)
		}
		p.Parallelism = 8
		parallel, err := OnlineRecovery(p, app)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("online rows differ:\nserial   %+v\nparallel %+v", serial, parallel)
		}
	})
	t.Run("table4-shape", func(t *testing.T) {
		p := p
		p.Parallelism = 8
		rows, err := Table4(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0].Code != "tip" || rows[0].P != 5 {
			t.Errorf("table 4 rows = %+v", rows)
		}
	})
}

// TestSweepValidation: the zero value and half-built Params fail fast
// with clear errors instead of panicking (division by zero) deep in a
// run.
func TestSweepValidation(t *testing.T) {
	if _, err := Sweep(Params{}); err == nil {
		t.Error("zero-value Params accepted")
	}

	p := parallelParams()
	p.ChunkSizeKB = 0
	if _, err := Sweep(p); err == nil {
		t.Error("ChunkSizeKB = 0 accepted")
	}

	p = parallelParams()
	p.Parallelism = -3
	if _, err := Sweep(p); err == nil {
		t.Error("negative parallelism accepted")
	}

	p = parallelParams()
	p.Policies = nil
	if _, err := Sweep(p); err == nil {
		t.Error("empty policies accepted")
	}

	// The CacheChunks guard itself: no panic, zero chunks.
	if got := (Params{}).CacheChunks(64); got != 0 {
		t.Errorf("zero-value CacheChunks(64) = %d, want 0", got)
	}
}

// TestSweepErrorPropagation: a failing run surfaces its wrapped error
// from the parallel path, and unstarted work is abandoned.
func TestSweepErrorPropagation(t *testing.T) {
	p := parallelParams()
	p.Policies = []string{"lru", "no-such-policy"}
	for _, par := range []int{1, 4} {
		p.Parallelism = par
		_, err := Sweep(p)
		if err == nil {
			t.Fatalf("parallelism %d: bad policy accepted", par)
		}
		if want := "no-such-policy"; !strings.Contains(err.Error(), want) {
			t.Errorf("parallelism %d: error %q does not mention %q", par, err, want)
		}
	}
}

// TestSweepProgress: the callback reports every completed run and ends
// at (total, total).
func TestSweepProgress(t *testing.T) {
	p := parallelParams()
	total := len(p.Codes) * len(p.Primes) * len(p.Policies) * len(p.CacheSizesMB)
	for _, par := range []int{1, 4} {
		var calls int32
		var mu sync.Mutex
		lastDone, lastTotal := 0, 0
		p.Parallelism = par
		p.Progress = func(done, n int) {
			atomic.AddInt32(&calls, 1)
			mu.Lock()
			if done > lastDone {
				lastDone = done
			}
			lastTotal = n
			mu.Unlock()
		}
		if _, err := Sweep(p); err != nil {
			t.Fatal(err)
		}
		if got := atomic.LoadInt32(&calls); got != int32(total) {
			t.Errorf("parallelism %d: %d progress calls, want %d", par, got, total)
		}
		if lastDone != total || lastTotal != total {
			t.Errorf("parallelism %d: final progress %d/%d, want %d/%d", par, lastDone, lastTotal, total, total)
		}
	}
}

// TestForEachIndexed pins the executor's contract directly: full
// coverage, bounded concurrency, serial-order error selection, prompt
// cancellation.
func TestForEachIndexed(t *testing.T) {
	t.Run("covers-all-indices", func(t *testing.T) {
		const n = 100
		seen := make([]int32, n)
		if err := forEachIndexed(7, n, nil, func(i int) error {
			atomic.AddInt32(&seen[i], 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("index %d ran %d times", i, c)
			}
		}
	})
	t.Run("bounded-concurrency", func(t *testing.T) {
		var cur, peak int32
		release := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := forEachIndexed(3, 12, nil, func(i int) error {
				c := atomic.AddInt32(&cur, 1)
				for {
					p := atomic.LoadInt32(&peak)
					if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
						break
					}
				}
				<-release
				atomic.AddInt32(&cur, -1)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
		for i := 0; i < 12; i++ {
			release <- struct{}{}
		}
		wg.Wait()
		if p := atomic.LoadInt32(&peak); p > 3 {
			t.Errorf("peak concurrency %d exceeds bound 3", p)
		}
	})
	t.Run("lowest-index-error-wins", func(t *testing.T) {
		errLow := errors.New("low")
		errHigh := errors.New("high")
		err := forEachIndexed(4, 4, nil, func(i int) error {
			switch i {
			case 1:
				return errLow
			case 3:
				return errHigh
			}
			return nil
		})
		if err != errLow {
			t.Errorf("got error %v, want %v", err, errLow)
		}
	})
	t.Run("cancels-unstarted-work", func(t *testing.T) {
		var started int32
		err := forEachIndexed(2, 1000, nil, func(i int) error {
			atomic.AddInt32(&started, 1)
			return fmt.Errorf("boom %d", i)
		})
		if err == nil {
			t.Fatal("no error propagated")
		}
		if s := atomic.LoadInt32(&started); s > 10 {
			t.Errorf("%d jobs started after the first failure; cancellation is not prompt", s)
		}
	})
	t.Run("zero-jobs", func(t *testing.T) {
		if err := forEachIndexed(4, 0, nil, func(i int) error { return fmt.Errorf("must not run") }); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkSweep measures the wall-clock effect of the parallel
// executor on a DefaultParams-shaped sweep (same axes, scaled-down
// groups/stripes so a benchtime=1x run stays tractable). On a machine
// with >= 4 cores the parallel variant is expected to be >= 2x faster
// than serial; on a single-core machine the two are equivalent.
func BenchmarkSweep(b *testing.B) {
	base := DefaultParams()
	base.Primes = []int{5, 7}
	base.CacheSizesMB = []int{8, 64, 512}
	base.Workers = 16
	base.Groups = 48
	base.Stripes = 2048

	for _, bench := range []struct {
		name string
		par  int
	}{
		{"serial", 1},
		{"parallel", 0}, // GOMAXPROCS
	} {
		b.Run(bench.name, func(b *testing.B) {
			p := base
			p.Parallelism = bench.par
			for i := 0; i < b.N; i++ {
				if _, err := Sweep(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
