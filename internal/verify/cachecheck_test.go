package verify

import (
	"regexp"
	"testing"

	"fbf/internal/cache"
	_ "fbf/internal/core" // registers the "fbf" policy
)

// TestCacheModelCheck is the acceptance run: every checked policy
// replays at least 10k randomized steps against its reference model —
// across small capacities (maximum eviction and ghost churn) and a
// larger one — with zero divergence in hit/miss decisions, residency
// or event counters.
func TestCacheModelCheck(t *testing.T) {
	for _, policy := range CheckedPolicies() {
		t.Run(policy, func(t *testing.T) {
			steps := 0
			for _, capacity := range []int{1, 2, 3, 8, 32} {
				for seed := int64(0); seed < 2; seed++ {
					rep, err := CheckCache(CacheConfig{
						Policy:   policy,
						Capacity: capacity,
						Steps:    2500,
						Seed:     seed,
					})
					if err != nil {
						t.Fatal(err)
					}
					steps += rep.Steps
				}
			}
			if steps < 10000 {
				t.Fatalf("only %d steps checked, want >= 10000", steps)
			}
		})
	}
}

// TestCacheModelCheckZeroCapacity pins the degenerate capacity-0
// contract: every request misses, nothing is ever resident.
func TestCacheModelCheckZeroCapacity(t *testing.T) {
	for _, policy := range CheckedPolicies() {
		rep, err := CheckCache(CacheConfig{Policy: policy, Capacity: 0, Steps: 500, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if rep.Stats.Hits != 0 || rep.Stats.Evictions != 0 {
			t.Fatalf("%s: capacity 0 produced hits=%d evictions=%d", policy, rep.Stats.Hits, rep.Stats.Evictions)
		}
	}
}

// TestCheckedPoliciesAreRegistered keeps the checker's list in sync
// with the policy registry: everything it claims to check must
// construct, and every registered policy except the clairvoyant "opt"
// must be checked.
func TestCheckedPoliciesAreRegistered(t *testing.T) {
	checked := make(map[string]bool)
	for _, name := range CheckedPolicies() {
		checked[name] = true
		if _, err := cache.New(name, 4); err != nil {
			t.Errorf("checked policy %q does not construct: %v", name, err)
		}
	}
	for _, name := range cache.Names() {
		if name == "opt" {
			continue // FutureAware; cross-checked in internal/cache instead
		}
		if !checked[name] {
			t.Errorf("registered policy %q has no reference model", name)
		}
	}
}

// TestCheckCacheDetectsDivergence sanity-checks the checker itself: a
// model checker that can never fail proves nothing. CheckCache's own
// loop, run on FIFO against the LRU model and on LRU against the FIFO
// model, must report the first step where the resident sets part (LRU
// refreshes recency on a hit, FIFO does not).
func TestCheckCacheDetectsDivergence(t *testing.T) {
	for _, tc := range []struct {
		policy string
		ref    refPolicy
	}{
		{"fifo", &refLRU{cap: 8}},
		{"lru", &refFIFO{cap: 8}},
	} {
		_, err := checkCache(cache.MustNew(tc.policy, 8), tc.ref, 2500, 1)
		if err == nil || !regexp.MustCompile(`step \d+ .*missing from policy`).MatchString(err.Error()) {
			t.Errorf("%s against the wrong model: err = %v, want a step whose resident sets differ", tc.policy, err)
		}
	}
}
