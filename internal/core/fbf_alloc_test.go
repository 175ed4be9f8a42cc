package core

import (
	"testing"

	"fbf/internal/cache"
)

// TestFBFSteadyStateAllocs pins the node freelist: at capacity, every
// miss evicts one chunk and inserts another by recycling the evicted
// intrusive list node, and hits demote or refresh by relinking nodes in
// place — so the request cycle the rebuild engine replays millions of
// times allocates nothing, with no priorities installed or with a scheme
// installed by SetScheme (whose lookup reads the scheme's share counts).
// SetScheme itself allocates nothing either.
func TestFBFSteadyStateAllocs(t *testing.T) {
	code := mustCode(t, "tip", 5)
	s, err := GenerateScheme(code, PartialStripeError{Stripe: 1, Disk: 0, Row: 0, Size: 3}, StrategyLooped)
	if err != nil {
		t.Fatal(err)
	}
	cells := code.Layout().Cells()
	for _, withScheme := range []bool{false, true} {
		const capacity = 64
		f := NewFBF(capacity)
		if withScheme {
			f.SetScheme(s)
		}
		for i := 0; i < 4*capacity; i++ {
			f.Request(cache.ChunkID{Stripe: i})
		}
		next := 4 * capacity
		allocs := testing.AllocsPerRun(1000, func() {
			f.Request(cache.ChunkID{Stripe: next}) // miss: evict + recycled insert
			next++
			f.Request(cache.ChunkID{Stripe: next - 1}) // hit: Queue1 recency refresh
			f.Request(cache.ChunkID{Stripe: s.Err.Stripe, Cell: code.CoordOf(next % cells)})
		})
		if allocs != 0 {
			t.Errorf("steady-state FBF request cycle (scheme installed: %v) allocates %v objects, want 0", withScheme, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { f.SetScheme(s) }); allocs != 0 {
			t.Errorf("SetScheme allocates %v objects, want 0", allocs)
		}
	}
}
