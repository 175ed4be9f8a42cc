package rebuild

import (
	"fmt"
	"sort"
	"testing"

	"fbf/internal/codes"
	"fbf/internal/core"
)

// TestSimulatorAndServiceAgree is the differential between the two
// engines (ROADMAP 5a): the same code, error trace (one group per
// stripe, repaired in ascending stripe order), policy, strategy and
// cache size through the event simulator with one worker and through
// the real-bytes service on a memstore must produce the same cache hits,
// cache misses and disk reads — the paper's Figure 8/9 metrics, tied to
// real bytes. The two share core's scheme generation and cache.Policy
// but not their replay loops, so this is what a refactor of either loop
// has to keep.
//
// It also rules out a shortcut. Resetting the policy between stripes
// was prototyped when this test was written: no chunk is shared across
// stripes, so the benchmark's mem-partial counts (fbf, 64 chunks) did
// not move and the rebuild ran 12–17 % faster in 3 of 3 pairs. It was
// rejected because fbf at 2–4 chunks, lfu at every size and arc at
// every size then diverge from the simulator (e.g. fbf/4: 66 hits here,
// 192 with the reset) — queue positions, frequencies and ghost lists
// carried from one stripe into the next are part of the paper's
// partition model.
func TestSimulatorAndServiceAgree(t *testing.T) {
	const stripes, seed = 64, 7
	code := codes.MustNew("tip", 7)
	errors := genErrors(t, code, stripes, stripes, seed)
	sort.Slice(errors, func(i, j int) bool { return errors[i].Stripe < errors[j].Stripe })
	for i, e := range errors {
		if e.Stripe != i {
			t.Fatalf("trace is not one group per stripe: group %d is on stripe %d", i, e.Stripe)
		}
	}
	m := testManifest("tip", 7, stripes, 64)
	for _, policy := range []string{"fbf", "lru", "lfu", "arc", "fifo"} {
		for _, size := range []int{2, 4, 8, 16, 64} {
			t.Run(fmt.Sprintf("%s-%d", policy, size), func(t *testing.T) {
				sim, err := Run(Config{
					Code: code, Policy: policy, Strategy: core.StrategyLooped,
					Workers: 1, CacheChunks: size, Stripes: stripes,
				}, errors)
				if err != nil {
					t.Fatal(err)
				}
				b := initMem(t, m, seed)
				for _, e := range errors {
					loseCells(t, b, e.Stripe, e.LostCells())
				}
				svc, err := RunService(ServiceConfig{
					Backend: b, Manifest: m, Policy: policy,
					Strategy: core.StrategyLooped, CacheChunks: size,
				})
				if err != nil {
					t.Fatal(err)
				}
				if sim.Cache.Hits == 0 && policy == "fbf" && size >= 8 {
					t.Fatalf("degenerate trace: no hits with %d chunks of fbf cache", size)
				}
				if sim.Cache.Hits != svc.CacheHits || sim.Cache.Misses != svc.CacheMisses || sim.DiskReads != svc.DiskReads {
					t.Fatalf("simulator %d hits, %d misses, %d reads; service %d hits, %d misses, %d reads",
						sim.Cache.Hits, sim.Cache.Misses, sim.DiskReads, svc.CacheHits, svc.CacheMisses, svc.DiskReads)
				}
			})
		}
	}
}
