package cache_test

import (
	"math/rand"
	"testing"

	"fbf/internal/cache"
	"fbf/internal/grid"

	// Register the FBF policy so the contract below covers it too.
	_ "fbf/internal/core"
)

// TestInvalidateContract drives every registered policy — FBF included —
// through randomized request streams interleaved with invalidations and
// asserts the Invalidate contract rebuild.RunService's escalation
// depends on:
//
//   - Invalidate returns whether a resident copy was dropped (ghost
//     entries are removed but reported false),
//   - after Invalidate the chunk is gone: Contains is false and the
//     next Request is a miss,
//   - invalidations are not evictions (Evictions is unchanged) and
//     never corrupt Len.
func TestInvalidateContract(t *testing.T) {
	mkID := func(n int) cache.ChunkID {
		return cache.ChunkID{Stripe: n / 16, Cell: grid.Coord{Row: n % 16}}
	}
	for _, name := range cache.Names() {
		t.Run(name, func(t *testing.T) {
			for _, capacity := range []int{1, 3, 16} {
				p := cache.MustNew(name, capacity)
				rng := rand.New(rand.NewSource(int64(len(name)*1000 + capacity)))
				stream := make([]cache.ChunkID, 800)
				for i := range stream {
					stream[i] = mkID(rng.Intn(4 * capacity))
				}
				if fa, okf := p.(cache.FutureAware); okf {
					fa.SetFuture(stream)
				}
				for i, id := range stream {
					p.Request(id)
					if i%7 != 3 {
						continue
					}
					victim := mkID(rng.Intn(4 * capacity))
					wasResident := p.Contains(victim)
					lenBefore := p.Len()
					evBefore := p.Stats().Evictions
					if got := p.Invalidate(victim); got != wasResident {
						t.Fatalf("cap %d step %d: Invalidate(%v) = %v, residency was %v",
							capacity, i, victim, got, wasResident)
					}
					if p.Contains(victim) {
						t.Fatalf("cap %d step %d: %v still resident after Invalidate", capacity, i, victim)
					}
					wantLen := lenBefore
					if wasResident {
						wantLen--
					}
					if p.Len() != wantLen {
						t.Fatalf("cap %d step %d: Len %d after Invalidate, want %d", capacity, i, p.Len(), wantLen)
					}
					if p.Stats().Evictions != evBefore {
						t.Fatalf("cap %d step %d: Invalidate bumped Evictions", capacity, i)
					}
					// Double invalidation is a no-op reporting false.
					if p.Invalidate(victim) {
						t.Fatalf("cap %d step %d: second Invalidate(%v) reported resident", capacity, i, victim)
					}
					// The invalidated chunk must re-enter through a miss.
					if p.Request(victim) {
						t.Fatalf("cap %d step %d: hit on invalidated %v", capacity, i, victim)
					}
				}
			}
		})
	}
}
