package core_test

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"fbf/internal/chunk"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/grid"
)

func column(c *codes.Code, col int) []grid.Coord {
	out := make([]grid.Coord, 0, c.Rows())
	for r := 0; r < c.Rows(); r++ {
		out = append(out, grid.Coord{Row: r, Col: col})
	}
	return out
}

// xorFetch recomputes a selected chain's lost cell from its fetch list
// on a materialized stripe.
func xorFetch(c *codes.Code, stripe []chunk.Chunk, sel core.SelectedChain) chunk.Chunk {
	acc := chunk.New(len(stripe[0]))
	for _, m := range sel.Fetch {
		chunk.XORInto(acc, stripe[c.CellIndex(m)])
	}
	return acc
}

func TestRegenerateMatchesGenerateWithoutEscalation(t *testing.T) {
	c := codes.MustNew("tip", 7)
	e := core.PartialStripeError{Stripe: 3, Disk: 2, Row: 1, Size: 3}
	want, err := core.GenerateScheme(c, e, core.StrategyLooped)
	if err != nil {
		t.Fatal(err)
	}
	got, lost, err := core.RegenerateScheme(c, e, e.LostCells(), nil, core.StrategyLooped)
	if err != nil || len(lost) != 0 {
		t.Fatalf("RegenerateScheme: lost=%v err=%v", lost, err)
	}
	if got.Decode != nil {
		t.Error("a scheme of single chains carries a decode")
	}
	if len(got.Selected) != len(want.Selected) {
		t.Fatalf("selected %d chains, want %d", len(got.Selected), len(want.Selected))
	}
	for i := range want.Selected {
		w, g := want.Selected[i], got.Selected[i]
		if g.Decoded || g.Lost != w.Lost || g.Chain != w.Chain || len(g.Fetch) != len(w.Fetch) {
			t.Errorf("chain %d: got %+v, want %+v", i, g, w)
		}
	}
	if len(got.Priorities) != len(want.Priorities) {
		t.Errorf("priorities differ: %d vs %d", len(got.Priorities), len(want.Priorities))
	}
}

func TestRegenerateDecoderFallbackIsByteExact(t *testing.T) {
	// Three whole columns erased: single chains cannot rebuild most cells
	// (every chain direction crosses the other dead columns), but a 3DFT
	// code still decodes everything — the GF(2) fallback must kick in and
	// its fetch lists must XOR to the original bytes.
	c := codes.MustNew("star", 5)
	e := core.PartialStripeError{Stripe: 0, Disk: 0, Row: 0, Size: 1}
	repair := column(c, 0)
	unavailable := append(column(c, 1), column(c, 2)...)
	scheme, lost, err := core.RegenerateScheme(c, e, repair, unavailable, core.StrategyLooped)
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != 0 {
		t.Fatalf("3-column loss should be recoverable for a 3DFT code, lost %v", lost)
	}
	if len(scheme.Selected) != len(repair) {
		t.Fatalf("selected %d chains for %d repair cells", len(scheme.Selected), len(repair))
	}
	decoded := 0
	stripe := c.MaterializeStripe(99, 64)
	for _, sel := range scheme.Selected {
		if sel.Decoded {
			decoded++
			if !slices.Equal(sel.Fetch, scheme.Decode.Plan[sel.Lost]) {
				t.Errorf("cell %v fetches %v, its decode plan lists %v", sel.Lost, sel.Fetch, scheme.Decode.Plan[sel.Lost])
			}
		}
		got := xorFetch(c, stripe, sel)
		want := stripe[c.CellIndex(sel.Lost)]
		if !got.Equal(want) {
			t.Errorf("cell %v (decoded=%v): recovered bytes differ", sel.Lost, sel.Decoded)
		}
		// A decoded selection must never fetch an erased cell.
		for _, m := range sel.Fetch {
			if m.Col <= 2 {
				t.Errorf("cell %v fetches erased cell %v", sel.Lost, m)
			}
		}
	}
	if decoded == 0 {
		t.Error("expected at least one decoder-fallback selection")
	}
}

func TestRegenerateReportsUnrecoverableCells(t *testing.T) {
	// Four whole columns exceed triple-fault tolerance: the scheme must
	// come back with the unsolvable repair cells listed, not an error.
	c := codes.MustNew("star", 5)
	e := core.PartialStripeError{Stripe: 0, Disk: 0, Row: 0, Size: 1}
	repair := column(c, 0)
	var unavailable []grid.Coord
	for col := 1; col <= 3; col++ {
		unavailable = append(unavailable, column(c, col)...)
	}
	_, lost, err := core.RegenerateScheme(c, e, repair, unavailable, core.StrategyLooped)
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) == 0 {
		t.Error("4-column loss should report lost cells")
	}
}

func TestRegenerateRejectsOutOfBounds(t *testing.T) {
	c := codes.MustNew("tip", 5)
	e := core.PartialStripeError{Stripe: 0, Disk: 0, Row: 0, Size: 1}
	if _, _, err := core.RegenerateScheme(c, e, []grid.Coord{{Row: 0, Col: 99}}, nil, core.StrategyLooped); err == nil {
		t.Error("out-of-bounds repair cell accepted")
	}
	if _, _, err := core.RegenerateScheme(c, e, []grid.Coord{{Row: 0, Col: 0}}, nil, core.Strategy(9)); err == nil {
		t.Error("invalid strategy accepted")
	}
}

// TestGenerateSchemeAllocs pins scheme generation's allocations at p=13
// on the error BenchmarkSchemeGen times. Its per-call cell sets are
// slices indexed by CellIndex and Priorities is sized once; hashed cell
// sets that grow per call took 32 allocations here.
func TestGenerateSchemeAllocs(t *testing.T) {
	const maxAllocs = 15
	for _, name := range codes.Names() {
		c := codes.MustNew(name, 13)
		e := core.PartialStripeError{Disk: 0, Row: 0, Size: max(c.Rows()/2, 1)}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := core.GenerateScheme(c, e, core.StrategyLooped); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxAllocs {
			t.Errorf("%s: GenerateScheme allocates %v objects, want ≤ %d", name, allocs, maxAllocs)
		}
	}
}

// checkSchemeBookkeeping checks what RegenerateScheme derives from its
// selections: Priorities is the recount of the Fetch lists, Decode is
// nil when every repair cell kept a single chain, and otherwise it is
// the decode of the sorted erased set, whose Plan each Decoded
// selection fetches. It reports whether the scheme decoded any cell.
func checkSchemeBookkeeping(t *testing.T, c *codes.Code, s *core.Scheme, repair, unavailable []grid.Coord) bool {
	t.Helper()
	recount := map[grid.Coord]int{}
	decoded := false
	for _, sel := range s.Selected {
		for _, m := range sel.Fetch {
			recount[m]++
		}
		if sel.Decoded {
			decoded = true
			if !slices.Equal(sel.Fetch, s.Decode.Plan[sel.Lost]) {
				t.Errorf("cell %v fetches %v, its decode plan lists %v", sel.Lost, sel.Fetch, s.Decode.Plan[sel.Lost])
			}
		}
	}
	if !maps.Equal(s.Priorities, recount) {
		t.Errorf("Priorities %v, recount of the fetch lists %v", s.Priorities, recount)
	}
	if !decoded {
		if s.Decode != nil {
			t.Error("a scheme of single chains carries a decode")
		}
		return false
	}
	erased := slices.Concat(repair, unavailable)
	slices.SortFunc(erased, func(a, b grid.Coord) int {
		if a.Less(b) {
			return -1
		}
		if b.Less(a) {
			return 1
		}
		return 0
	})
	want, err := c.DecodeSchedule(slices.Compact(erased))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Decode, want) {
		t.Error("Decode differs from the decode of the sorted erased set")
	}
	return true
}

// TestSchemeBookkeepingSweep runs checkSchemeBookkeeping over every
// single-disk run (GenerateScheme) and every one- and two-disk kill
// (RegenerateScheme, the second disk repaired or only unavailable) on
// the four codes at p ∈ {5, 7} under every strategy; some two-disk kills
// must take the decoder.
func TestSchemeBookkeepingSweep(t *testing.T) {
	strategies := []core.Strategy{core.StrategyTypical, core.StrategyLooped, core.StrategyGreedy}
	decoded := 0
	for _, name := range codes.Names() {
		for _, p := range []int{5, 7} {
			c := codes.MustNew(name, p)
			for _, strategy := range strategies {
				for disk := 0; disk < c.Disks(); disk++ {
					for row := 0; row < c.Rows(); row++ {
						for size := 1; row+size <= c.Rows() && size <= p-1; size++ {
							e := core.PartialStripeError{Disk: disk, Row: row, Size: size}
							s, err := core.GenerateScheme(c, e, strategy)
							if err != nil {
								t.Fatalf("%v %v %v: %v", c, strategy, e, err)
							}
							if checkSchemeBookkeeping(t, c, s, e.LostCells(), nil) {
								t.Errorf("%v %v %v: a partial stripe error took the decoder", c, strategy, e)
							}
						}
					}
				}
				e := core.PartialStripeError{Size: 1}
				for a := 0; a < c.Disks(); a++ {
					s, _, err := core.RegenerateScheme(c, e, column(c, a), nil, strategy)
					if err != nil {
						t.Fatal(err)
					}
					if checkSchemeBookkeeping(t, c, s, column(c, a), nil) {
						decoded++
					}
					for b := a + 1; b < c.Disks(); b++ {
						both := slices.Concat(column(c, a), column(c, b))
						for _, k := range []struct{ repair, unavailable []grid.Coord }{
							{both, nil},
							{column(c, a), column(c, b)},
						} {
							s, _, err := core.RegenerateScheme(c, e, k.repair, k.unavailable, strategy)
							if err != nil {
								t.Fatal(err)
							}
							if checkSchemeBookkeeping(t, c, s, k.repair, k.unavailable) {
								decoded++
							}
						}
					}
				}
			}
		}
	}
	if decoded == 0 {
		t.Error("no kill took the decoder")
	}
	t.Logf("%d kills took the decoder", decoded)
}
