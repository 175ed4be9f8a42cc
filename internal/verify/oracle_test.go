package verify

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fbf/internal/chunk"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/grid"
)

// TestOracleAgreesWithChains recovers every cell of a partial stripe
// error through its selected parity chain and cross-checks each against
// the Oracle, the incremental form of the checkPattern gf2 diff.
func TestOracleAgreesWithChains(t *testing.T) {
	code := codes.MustNew("star", 5)
	stripe := code.MaterializeStripe(11, 128)
	e := core.PartialStripeError{Stripe: 0, Disk: 2, Row: 1, Size: 3}
	lost := e.LostCells()

	oracle, err := NewOracle(code, lost)
	if err != nil {
		t.Fatal(err)
	}
	read := func(c grid.Coord, dst chunk.Chunk) error {
		copy(dst, stripe[code.CellIndex(c)])
		return nil
	}
	scheme, err := core.GenerateScheme(code, e, core.StrategyLooped)
	if err != nil {
		t.Fatal(err)
	}
	acc, buf := chunk.New(128), chunk.New(128)
	for _, sel := range scheme.Selected {
		if !oracle.Solvable(sel.Lost) {
			t.Fatalf("oracle cannot solve %v", sel.Lost)
		}
		recovered, err := code.RebuildChunk(sel.Chain, sel.Lost, stripe)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.Check(sel.Lost, recovered, acc, buf, read); err != nil {
			t.Errorf("oracle rejects a correct chain recovery: %v", err)
		}
		// A single flipped byte in the recovered chunk must be caught.
		recovered[17] ^= 0x01
		if err := oracle.Check(sel.Lost, recovered, acc, buf, read); err == nil {
			t.Errorf("oracle accepted corrupted recovery of %v", sel.Lost)
		} else if !strings.Contains(err.Error(), "disagree") {
			t.Errorf("unexpected oracle error: %v", err)
		}
	}
}

// TestOracleBeyondTolerance pins the unsolvable-cell reporting: erase
// more columns than the code tolerates and the oracle must refuse those
// cells rather than fabricate a plan.
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
	solvable := 0
	for _, c := range lost {
		if oracle.Solvable(c) {
			solvable++
		}
	}
	if solvable == len(lost) {
		t.Fatal("oracle claims to solve a 4-column erasure on a 3DFT code")
	}
	for _, c := range lost {
		if !oracle.Solvable(c) {
			if err := oracle.Check(c, chunk.New(16), chunk.New(16), chunk.New(16), func(grid.Coord, chunk.Chunk) error { return nil }); err == nil {
				t.Fatalf("Check succeeded on unsolvable cell %v", c)
			}
			break
		}
	}
}

// TestOracleCheckAllocatesNothing pins Check to its caller's scratch: a
// passing check of a paper-scale chunk performs no allocation (it used
// to make two fresh chunks per call), whatever the scratch held before.
func TestOracleCheckAllocatesNothing(t *testing.T) {
	code := codes.MustNew("tip", 7)
	stripe := code.MaterializeStripe(3, chunk.DefaultSize)
	lost := core.PartialStripeError{Stripe: 0, Disk: 1, Row: 0, Size: 3}.LostCells()
	oracle, err := NewOracle(code, lost)
	if err != nil {
		t.Fatal(err)
	}
	read := func(c grid.Coord, dst chunk.Chunk) error {
		copy(dst, stripe[code.CellIndex(c)])
		return nil
	}
	acc, buf := chunk.New(chunk.DefaultSize), chunk.New(chunk.DefaultSize)
	for i := range acc {
		acc[i], buf[i] = 0xa5, 0x5a // stale scratch must not leak into the result
	}
	cell := lost[1]
	recovered := stripe[code.CellIndex(cell)]
	allocs := testing.AllocsPerRun(20, func() {
		if err := oracle.Check(cell, recovered, acc, buf, read); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Oracle.Check allocates %.0f times per call, want 0", allocs)
	}
	if err := oracle.Check(cell, recovered, acc[:64], buf, read); err == nil {
		t.Fatal("Check accepted scratch of the wrong size")
	}
}

// TestSourceMajorAccumulationEqualsCheck is the property the storage
// engine's read-once stripe decode rests on: for every code and sampled
// lost pattern (whole columns, partial stripe errors, scattered cells),
// visiting each surviving cell once and folding it into the accumulator
// of every lost cell whose Sources lists it, then calling Diff, decides
// exactly as Check does cell by cell — both accept the true bytes, and
// both report a single flipped byte with the same error, offset
// included.
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
				read := func(c grid.Coord, dst chunk.Chunk) error {
					copy(dst, stripe[code.CellIndex(c)])
					return nil
				}
				// Source-major: one visit per surviving cell.
				accs := make(map[grid.Coord]chunk.Chunk)
				users := make(map[grid.Coord][]grid.Coord)
				for _, cell := range lost {
					if !oracle.Solvable(cell) {
						continue
					}
					accs[cell] = chunk.New(size)
					for _, src := range oracle.Sources(cell) {
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
				acc, buf := chunk.New(size), chunk.New(size)
				for cell, derived := range accs {
					recovered := append(chunk.Chunk(nil), stripe[code.CellIndex(cell)]...)
					if err := Diff(cell, derived, recovered); err != nil {
						t.Fatalf("source-major rejects the true bytes of %v: %v", cell, err)
					}
					if err := oracle.Check(cell, recovered, acc, buf, read); err != nil {
						t.Fatalf("Check rejects the true bytes of %v: %v", cell, err)
					}
					off := rng.Intn(size)
					recovered[off] ^= 0x40
					want := fmt.Sprintf("disagree on %v (first diff at offset %d)", cell, off)
					errPass, errCheck := Diff(cell, derived, recovered), oracle.Check(cell, recovered, acc, buf, read)
					if errPass == nil || errCheck == nil || errPass.Error() != errCheck.Error() || !strings.Contains(errPass.Error(), want) {
						t.Fatalf("flipped byte %d of %v: source-major says %v, Check says %v", off, cell, errPass, errCheck)
					}
				}
			})
		}
	}
}
