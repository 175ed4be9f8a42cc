package cache

import (
	"math/rand"
	"slices"
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
//   - the SetOnEvict callback names, request by request, exactly the
//     chunks that left the resident set (the reference here is the
//     residency diff; internal/verify holds the same against each
//     policy's model), as many as Stats().Evictions counts, never for an
//     Invalidate, still after a Reset, and not at all once set to nil,
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
				var reported []ChunkID
				p.SetOnEvict(func(id ChunkID) { reported = append(reported, id) })
				resident := map[ChunkID]bool{}
				var requests, evictions uint64
				for i, id := range stream {
					reported = reported[:0]
					p.Request(id)
					requests++
					left := 0
					for r := range resident {
						if p.Contains(r) {
							continue
						}
						left++
						delete(resident, r)
						if !slices.Contains(reported, r) {
							t.Fatalf("cap %d step %d: %v left the resident set, callback reported %v", capacity, i, r, reported)
						}
					}
					if left != len(reported) {
						t.Fatalf("cap %d step %d: %d chunks left the resident set, callback reported %v", capacity, i, left, reported)
					}
					if p.Contains(id) {
						resident[id] = true
					}
					if evictions += uint64(left); p.Stats().Evictions != evictions {
						t.Fatalf("cap %d step %d: Stats().Evictions = %d, callback reported %d", capacity, i, p.Stats().Evictions, evictions)
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
				reported = reported[:0]
				p.Invalidate(stream[len(stream)-1]) // resident unless MIN bypassed it
				if len(reported) != 0 {
					t.Fatalf("cap %d: Invalidate reported %v as evicted", capacity, reported)
				}
				p.Reset()
				for k := 0; k <= capacity; k++ { // one more distinct chunk than fits
					p.Request(ChunkID{Stripe: 1000 + k})
				}
				if !clairvoyant && len(reported) != 1 {
					t.Fatalf("cap %d: after Reset, overfilling by one reported %v", capacity, reported)
				}
				p.SetOnEvict(nil)
				p.Request(ChunkID{Stripe: 2000})
				if !clairvoyant && len(reported) != 1 {
					t.Fatalf("cap %d: a nil callback was still called: %v", capacity, reported)
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
