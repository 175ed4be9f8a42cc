package verify

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fbf/internal/chunk"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/grid"
)

// derive re-derives cell cell-major, as the XOR of its oracle sources in
// the stripe, or returns nil when the oracle cannot solve it.
func derive(t *testing.T, code *codes.Code, oracle *Oracle, lost []grid.Coord, cell grid.Coord, stripe []chunk.Chunk) chunk.Chunk {
	t.Helper()
	sources := oracle.Sources(cell)
	if sources == nil {
		return nil
	}
	acc := chunk.New(len(stripe[0]))
	for _, src := range sources {
		if slices.Contains(lost, src) {
			t.Fatalf("oracle plan for %v reads lost cell %v", cell, src)
		}
		chunk.XORInto(acc, stripe[code.CellIndex(src)])
	}
	return acc
}

// TestOracleAgreesWithChains recovers every cell of a partial stripe
// error through its selected parity chain and cross-checks each against
// the XOR of its oracle sources, the incremental form of the checkPattern
// gf2 diff.
func TestOracleAgreesWithChains(t *testing.T) {
	code := codes.MustNew("star", 5)
	stripe := code.MaterializeStripe(11, 128)
	e := core.PartialStripeError{Stripe: 0, Disk: 2, Row: 1, Size: 3}
	lost := e.LostCells()

	oracle, err := NewOracle(code, lost)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := core.GenerateScheme(code, e, core.StrategyLooped)
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range scheme.Selected {
		derived := derive(t, code, oracle, lost, sel.Lost, stripe)
		if derived == nil {
			t.Fatalf("oracle cannot solve %v", sel.Lost)
		}
		recovered, err := code.RebuildChunk(sel.Chain, sel.Lost, stripe)
		if err != nil {
			t.Fatal(err)
		}
		if off := firstDiff(derived, recovered); off >= 0 {
			t.Errorf("chain recovery and oracle disagree on %v at offset %d", sel.Lost, off)
		}
	}
}

// TestOracleBeyondTolerance pins the unsolvable-cell reporting: erase
// more columns than the code tolerates and the oracle must return no
// sources for those cells rather than fabricate a plan.
func TestOracleBeyondTolerance(t *testing.T) {
	code := codes.MustNew("star", 5)
	var lost []grid.Coord
	for col := 0; col < 4; col++ { // 4 whole columns > 3DFT tolerance
		for row := 0; row < code.Rows(); row++ {
			lost = append(lost, grid.Coord{Row: row, Col: col})
		}
	}
	oracle, err := NewOracle(code, lost)
	if err != nil {
		t.Fatal(err)
	}
	unsolvable := 0
	for _, c := range lost {
		if oracle.Sources(c) == nil {
			unsolvable++
		}
	}
	if unsolvable == 0 {
		t.Fatal("oracle claims to solve a 4-column erasure on a 3DFT code")
	}
}

// TestSourceMajorAccumulationEqualsCheck pins the oracle's Sources on
// every code and sampled lost pattern (whole columns, partial stripe
// errors, scattered cells): visiting each surviving cell once and folding
// it into the accumulator of every lost cell whose Sources lists it gives
// the same bytes as the cell-by-cell fold (derive), and both are the true
// bytes of the cell.
func TestSourceMajorAccumulationEqualsCheck(t *testing.T) {
	const size = 96
	rng := rand.New(rand.NewSource(16))
	for _, name := range codes.Names() {
		code := codes.MustNew(name, 5)
		cells := code.Layout().Cells()
		column := func(cols ...int) []grid.Coord {
			var out []grid.Coord
			for _, col := range cols {
				for row := 0; row < code.Rows(); row++ {
					out = append(out, grid.Coord{Row: row, Col: col})
				}
			}
			return out
		}
		patterns := [][]grid.Coord{
			column(0), column(1, 3), column(0, 2, 4), column(1, 2, 3),
			core.PartialStripeError{Disk: 2, Row: 1, Size: 3}.LostCells(),
		}
		for i := 0; i < 6; i++ { // scattered cells, 1 to 8 of them
			var scattered []grid.Coord
			for _, idx := range rng.Perm(cells)[:1+rng.Intn(8)] {
				scattered = append(scattered, code.CoordOf(idx))
			}
			patterns = append(patterns, scattered)
		}
		for pi, lost := range patterns {
			t.Run(fmt.Sprintf("%s-%d", name, pi), func(t *testing.T) {
				stripe := code.MaterializeStripe(int64(100+pi), size)
				oracle, err := NewOracle(code, lost)
				if err != nil {
					t.Fatal(err)
				}
				// Source-major: one visit per surviving cell.
				accs := make(map[grid.Coord]chunk.Chunk)
				users := make(map[grid.Coord][]grid.Coord)
				for _, cell := range lost {
					sources := oracle.Sources(cell)
					if sources == nil {
						continue
					}
					accs[cell] = chunk.New(size)
					for _, src := range sources {
						users[src] = append(users[src], cell)
					}
				}
				if len(accs) == 0 {
					t.Skip("pattern is wholly unsolvable")
				}
				for idx := 0; idx < cells; idx++ {
					for _, cell := range users[code.CoordOf(idx)] {
						chunk.XORInto(accs[cell], stripe[idx])
					}
				}
				for cell, derived := range accs {
					if off := firstDiff(derived, derive(t, code, oracle, lost, cell, stripe)); off >= 0 {
						t.Fatalf("source-major and cell-major folds of %v differ at offset %d", cell, off)
					}
					recovered := append(chunk.Chunk(nil), stripe[code.CellIndex(cell)]...)
					if off := firstDiff(derived, recovered); off >= 0 {
						t.Fatalf("source-major fold of %v differs from its true bytes at offset %d", cell, off)
					}
					off := rng.Intn(size)
					recovered[off] ^= 0x40
					if got := firstDiff(derived, recovered); got != off {
						t.Fatalf("flipped byte %d of %v found at %d", off, cell, got)
					}
				}
			})
		}
	}
}
