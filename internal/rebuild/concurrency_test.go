package rebuild

import (
	"reflect"
	"sync"
	"testing"

	"fbf/internal/codes"
	"fbf/internal/core"
)

// TestCachePartitionDistributesRemainder is the regression test for the
// capacity-loss bug: cfg.CacheChunks / cfg.Workers silently discarded
// the remainder (1000 chunks across 128 workers lost 104 chunks, over
// 10% of the configured capacity). The partition must use every chunk,
// spread the extras across the first total%n workers, and never skew
// any two partitions by more than one chunk.
func TestCachePartitionDistributesRemainder(t *testing.T) {
	cases := []struct {
		total, n int
	}{
		{1000, 128}, // the reported bug: 104 chunks vanished
		{1000, 1},
		{7, 4},
		{3, 8}, // fewer chunks than workers
		{0, 16},
		{256, 16}, // exact division
	}
	for _, c := range cases {
		parts := cachePartition(c.total, c.n)
		if len(parts) != c.n {
			t.Fatalf("cachePartition(%d, %d): %d partitions", c.total, c.n, len(parts))
		}
		sum, minP, maxP := 0, parts[0], parts[0]
		for _, p := range parts {
			sum += p
			if p < minP {
				minP = p
			}
			if p > maxP {
				maxP = p
			}
		}
		if sum != c.total {
			t.Errorf("cachePartition(%d, %d) allocates %d chunks", c.total, c.n, sum)
		}
		if maxP-minP > 1 {
			t.Errorf("cachePartition(%d, %d) skew %d (partitions %v...)", c.total, c.n, maxP-minP, parts[:min(8, len(parts))])
		}
	}
	// The exact shape of the reported case.
	parts := cachePartition(1000, 128)
	for i, p := range parts {
		want := 7
		if i < 104 {
			want = 8
		}
		if p != want {
			t.Fatalf("partition %d = %d chunks, want %d", i, p, want)
		}
	}
	if got := cachePartition(5, 0); got != nil {
		t.Errorf("cachePartition(5, 0) = %v, want nil", got)
	}
}

// TestRemainderCapacityIsUsed pins that the recovered remainder shows up
// in behaviour: under LRU (whose per-partition hit count is monotone in
// capacity by the inclusion property), a capacity whose division used to
// truncate must do at least as well as its truncated floor — and for
// this deterministic trace, strictly better.
func TestRemainderCapacityIsUsed(t *testing.T) {
	code := codes.MustNew("tip", 7)
	errors := genErrors(t, code, 40, 256, 5)
	run := func(cacheChunks int) *Result {
		res, err := Run(Config{
			Code: code, Policy: "lru", Strategy: core.StrategyLooped,
			Workers: 4, CacheChunks: cacheChunks, Stripes: 256,
		}, errors)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// 11 chunks over 4 workers: pre-fix [2,2,2,2] (8 usable), post-fix
	// [3,3,3,2] (all 11).
	full := run(11)
	floor := run(8)
	if full.Cache.Hits < floor.Cache.Hits {
		t.Errorf("hits dropped with more cache: %d (11 chunks) < %d (8 chunks)", full.Cache.Hits, floor.Cache.Hits)
	}
	if full.Cache.Hits == floor.Cache.Hits && full.Cache.Misses == floor.Cache.Misses {
		t.Errorf("11 configured chunks behave identically to the truncated 8 — remainder capacity still discarded (hits=%d misses=%d)",
			full.Cache.Hits, full.Cache.Misses)
	}
}

// TestConcurrentRunsShareGeometryAndTrace enforces rebuild.Run's
// documented concurrency contract: many simultaneous runs may share one
// code and one error-trace slice because both are strictly read-only.
// Under `go test -race` this fails loudly if anyone adds hidden mutable
// state to the engine, the code or the trace; without the race detector
// it still verifies that concurrent results are identical to serial
// ones.
func TestConcurrentRunsShareGeometryAndTrace(t *testing.T) {
	code := codes.MustNew("star", 7) // STAR exercises adjuster-cell chains
	errors := genErrors(t, code, 32, 512, 3)

	cfgFor := func(policy string, cacheChunks int) Config {
		return Config{
			Code: code, Policy: policy, Strategy: core.StrategyLooped,
			Workers: 8, CacheChunks: cacheChunks, Stripes: 512,
		}
	}
	type job struct {
		policy string
		chunks int
	}
	var jobs []job
	for _, policy := range []string{"fifo", "lru", "lfu", "arc", "fbf"} {
		for _, chunks := range []int{25, 100, 1000} {
			jobs = append(jobs, job{policy, chunks})
		}
	}

	// Serial reference results.
	want := make([]*Result, len(jobs))
	for i, j := range jobs {
		res, err := Run(cfgFor(j.policy, j.chunks), errors)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	// The same runs, all concurrent, sharing code and errors.
	got := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			got[i], errs[i] = Run(cfgFor(j.policy, j.chunks), errors)
		}(i, j)
	}
	wg.Wait()

	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("%s/%d: %v", j.policy, j.chunks, errs[i])
		}
		w, g := *want[i], *got[i]
		w.SchemeGenWall, g.SchemeGenWall = 0, 0 // real wall time, not simulated
		if !reflect.DeepEqual(w, g) {
			t.Errorf("%s/%d: concurrent result differs from serial:\n  serial     %+v\n  concurrent %+v", j.policy, j.chunks, w, g)
		}
	}
}
