package cache

import (
	"math/rand"
	"testing"
)

// TestPolicyContract drives every registered policy through randomized
// request streams and asserts the Policy interface contract that the
// engines and the verify harness depend on:
//
//   - Len never exceeds Capacity; for demand-caching policies every
//     miss admits (when capacity > 0) so Len equals misses minus
//     evictions and a just-requested chunk is resident. Clairvoyant
//     policies are exempt from both: MIN may bypass admission when the
//     incoming chunk's next use is farthest,
//   - Contains has no side effects on the stats,
//   - Hits + Misses equals the number of requests,
//   - Stats().Evictions counts, request by request, exactly the chunks
//     that left the resident set (the residency diff; internal/verify
//     holds each eviction against the policy's model),
//   - Reset clears residency and counters but preserves identity.
//
// The deeper step-by-step behavioural checks against reference models
// live in internal/verify; this test is the registry-wide floor.
func TestPolicyContract(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			for _, capacity := range []int{1, 3, 16} {
				rng := rand.New(rand.NewSource(int64(len(name)*100 + capacity)))
				stream := make([]ChunkID, 600)
				for i := range stream {
					stream[i] = ChunkID{Stripe: rng.Intn(4 * capacity)}
				}
				p := MustNew(name, capacity)
				if p.Name() != name {
					t.Fatalf("Name() = %q, registered as %q", p.Name(), name)
				}
				clairvoyant := false
				if fa, ok := p.(FutureAware); ok {
					fa.SetFuture(stream)
					clairvoyant = true
				}
				resident := map[ChunkID]bool{}
				var requests, evictions uint64
				for i, id := range stream {
					p.Request(id)
					requests++
					for r := range resident {
						if !p.Contains(r) {
							evictions++
							delete(resident, r)
						}
					}
					if p.Contains(id) {
						resident[id] = true
					}
					if p.Stats().Evictions != evictions {
						t.Fatalf("cap %d step %d: Stats().Evictions = %d, %d chunks left the resident set", capacity, i, p.Stats().Evictions, evictions)
					}
					if !clairvoyant && !p.Contains(id) {
						t.Fatalf("cap %d step %d: just-requested %v not resident", capacity, i, id)
					}
					if p.Len() > p.Capacity() {
						t.Fatalf("cap %d step %d: Len %d exceeds capacity", capacity, i, p.Len())
					}
					s := p.Stats()
					if s.Hits+s.Misses != requests {
						t.Fatalf("cap %d step %d: %d hits + %d misses != %d requests",
							capacity, i, s.Hits, s.Misses, requests)
					}
					if !clairvoyant && int(s.Misses-s.Evictions) != p.Len() {
						t.Fatalf("cap %d step %d: misses %d - evictions %d != Len %d",
							capacity, i, s.Misses, s.Evictions, p.Len())
					}
				}
				statsBefore := p.Stats()
				p.Contains(ChunkID{Stripe: -1})
				if p.Stats() != statsBefore {
					t.Fatalf("cap %d: Contains mutated stats", capacity)
				}
				p.Reset()
				if p.Len() != 0 || p.Stats() != (Stats{}) {
					t.Fatalf("cap %d: Reset left Len=%d stats=%+v", capacity, p.Len(), p.Stats())
				}
				if p.Capacity() != capacity || p.Name() != name {
					t.Fatalf("cap %d: Reset changed identity to %s/%d", capacity, p.Name(), p.Capacity())
				}
			}
		})
	}
}
