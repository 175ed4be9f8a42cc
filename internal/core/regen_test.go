package core_test

import (
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
