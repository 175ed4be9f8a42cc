package codes

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"fbf/internal/chunk"
	"fbf/internal/gf2"
	"fbf/internal/grid"
)

// syndromes returns one buffer per chain of the layout: the XOR of the
// chain's surviving cells, a survivor folded in only if fold says so.
func syndromes(c *Code, s Stripe, lost map[grid.Coord]bool, fold func(grid.Coord) bool) []chunk.Chunk {
	out := make([]chunk.Chunk, len(c.Layout().Chains()))
	for i, ch := range c.Layout().Chains() {
		out[i] = chunk.New(len(s[0]))
		for _, cell := range ch.Survivors(lost) {
			if fold(cell) {
				chunk.XORInto(out[i], s[c.CellIndex(cell)])
			}
		}
	}
	return out
}

func replay(d *DecodeSchedule, bufs []chunk.Chunk) {
	for _, op := range d.Ops {
		chunk.XORInto(bufs[op.Dst], bufs[op.Src])
	}
}

func sortedCoords(cells []grid.Coord) []grid.Coord {
	out := append([]grid.Coord{}, cells...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// checkDecodeSchedule holds one lost set's DecodeSchedule to the
// written-out decoder it must be the factored form of, on a random
// encoded stripe. liars asks, beside, that no single altered survivor
// leaves every spare row at zero — the redundancy an erasure pattern
// short of the code's tolerance keeps.
func checkDecodeSchedule(t testing.TB, c *Code, lost []grid.Coord, seed int64, liars bool) {
	t.Helper()
	const size = 24
	d, err := c.DecodeSchedule(lost)
	if err != nil {
		t.Fatalf("%v %v: %v", c, lost, err)
	}
	lostSet := map[grid.Coord]bool{}
	var distinct []grid.Coord // in the order given: an over-determined solve depends on it
	for _, cell := range lost {
		if !lostSet[cell] {
			distinct = append(distinct, cell)
		}
		lostSet[cell] = true
	}

	// Solved and unsolved partition the lost set, and the strict decoder
	// refuses exactly the patterns with an unsolved cell; where it accepts,
	// its equations are the schedule's.
	for _, cell := range d.Unsolved {
		if _, solved := d.Plan[cell]; solved || !lostSet[cell] {
			t.Fatalf("%v %v: unsolved cell %v is solved too, or was never lost", c, lost, cell)
		}
	}
	if len(d.Plan)+len(d.Unsolved) != len(lostSet) || len(d.Row) != len(d.Plan) {
		t.Fatalf("%v %v: %d solved (%d rows) + %d unsolved cells of %d lost", c, lost, len(d.Plan), len(d.Row), len(d.Unsolved), len(lostSet))
	}
	checkSameCombinations(t, c, distinct, d)
	full, err := c.RecoveryPlan(distinct)
	if (err != nil) != (len(d.Unsolved) > 0) {
		t.Fatalf("%v %v: RecoveryPlan err = %v with %d cells unsolved", c, lost, err, len(d.Unsolved))
	}
	for cell, terms := range full {
		if !reflect.DeepEqual(sortedCoords(terms), sortedCoords(d.Plan[cell])) {
			t.Fatalf("%v %v: RecoveryPlan rebuilds %v from %v, the schedule's plan from %v", c, lost, cell, terms, d.Plan[cell])
		}
	}

	// Each cell's combination of chains, written out, is its Plan list: the
	// cell itself, no other lost cell, and exactly those survivors.
	chains := c.Layout().Chains()
	comb := make([]map[int]bool, len(chains))
	for i := range comb {
		comb[i] = map[int]bool{i: true}
	}
	for _, op := range d.Ops {
		if op.Dst == op.Src {
			t.Fatalf("%v %v: operation adds row %d to itself", c, lost, op.Dst)
		}
		for i := range comb[op.Src] {
			if comb[op.Dst][i] {
				delete(comb[op.Dst], i)
			} else {
				comb[op.Dst][i] = true
			}
		}
	}
	writtenOut := func(row int) map[grid.Coord]bool {
		odd := map[grid.Coord]bool{}
		for i := range comb[row] {
			for _, cell := range chains[i].Cells {
				if odd[cell] {
					delete(odd, cell)
				} else {
					odd[cell] = true
				}
			}
		}
		return odd
	}
	inPlan := map[grid.Coord]bool{}
	for cell, terms := range d.Plan {
		want := map[grid.Coord]bool{cell: true}
		for _, m := range terms {
			want[m], inPlan[m] = true, true
		}
		if got := writtenOut(d.Row[cell]); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v %v: row %d written out is %v, the plan rebuilds %v from %v", c, lost, d.Row[cell], sortedCoords(keys(got)), cell, terms)
		}
	}
	for _, row := range d.Spare {
		for cell := range writtenOut(row) {
			if lostSet[cell] {
				t.Fatalf("%v %v: spare row %d still holds lost cell %v", c, lost, row, cell)
			}
		}
	}

	// On bytes: every solvable cell comes out of its row equal to the
	// written-out equation's sum and to the truth — with every survivor
	// folded in, and with only the survivors some equation lists. The
	// spare rows are zero on a consistent stripe.
	s := randomEncodedStripe(t, c, seed, size)
	all := func(grid.Coord) bool { return true }
	for name, fold := range map[string]func(grid.Coord) bool{"every survivor": all, "listed survivors only": func(cell grid.Coord) bool { return inPlan[cell] }} {
		bufs := syndromes(c, s, lostSet, fold)
		replay(d, bufs)
		for cell, terms := range d.Plan {
			sum := chunk.New(size)
			for _, m := range terms {
				chunk.XORInto(sum, s[c.CellIndex(m)])
			}
			if got := bufs[d.Row[cell]]; !got.Equal(sum) || !got.Equal(s[c.CellIndex(cell)]) {
				t.Fatalf("%v %v, %s folded: row %d is not cell %v", c, lost, name, d.Row[cell], cell)
			}
		}
		for _, row := range d.Spare {
			if name == "every survivor" && !bufs[row].IsZero() {
				t.Fatalf("%v %v: spare row %d is not zero on a consistent stripe", c, lost, row)
			}
		}
	}
	if !liars {
		return
	}
	for idx := range s {
		cell := c.CoordOf(idx)
		if lostSet[cell] {
			continue
		}
		s[idx][idx%size] ^= 0x10
		bufs := syndromes(c, s, lostSet, all)
		s[idx][idx%size] ^= 0x10
		replay(d, bufs)
		caught := false
		for _, row := range d.Spare {
			caught = caught || !bufs[row].IsZero()
		}
		if !caught {
			t.Fatalf("%v %v: survivor %v altered, every spare row is still zero", c, lost, cell)
		}
	}
}

func keys(set map[grid.Coord]bool) []grid.Coord {
	out := make([]grid.Coord, 0, len(set))
	for cell := range set {
		out = append(out, cell)
	}
	return out
}

func columns(c *Code, cols ...int) []grid.Coord {
	var out []grid.Coord
	for _, col := range cols {
		out = append(out, c.Layout().ColumnCells(col)...)
	}
	return out
}

// TestDecodeScheduleMatchesWrittenOutDecoder is the differential the
// storage engine's syndrome decode rests on: for four codes × p ∈ {5, 7},
// every kill of one, two and three columns, every single-disk partial
// stripe pattern and seeded random cell sets up to and beyond the code's
// tolerance, the recorded schedule is the written-out decoder factored —
// see checkDecodeSchedule — and one or two dead columns leave every
// single lying survivor visible in a spare row.
func TestDecodeScheduleMatchesWrittenOutDecoder(t *testing.T) {
	for _, c := range allCodes(t, smallPrimes) {
		t.Run(fmt.Sprintf("%s-p%d", c.Name(), c.P()), func(t *testing.T) {
			n := c.Disks()
			for a := 0; a < n; a++ {
				checkDecodeSchedule(t, c, columns(c, a), int64(a), true)
				for b := a + 1; b < n; b++ {
					checkDecodeSchedule(t, c, columns(c, a, b), int64(a*n+b), true)
					for e := b + 1; e < n; e++ {
						checkDecodeSchedule(t, c, columns(c, a, b, e), int64((a*n+b)*n+e), false)
					}
				}
			}
			for disk := 0; disk < n; disk++ {
				for row := 0; row < c.Rows(); row++ {
					for size := 1; row+size <= c.Rows(); size++ {
						checkDecodeSchedule(t, c, c.Layout().ColumnCells(disk)[row:row+size], int64(disk*97+row*7+size), false)
					}
				}
			}
			rng := rand.New(rand.NewSource(int64(c.P())*31 + int64(len(c.Name()))))
			for i := 0; i < 150; i++ {
				k := 1 + rng.Intn(5*c.Rows()) // up to five columns' worth, scattered
				var lost []grid.Coord
				for _, idx := range rng.Perm(c.Layout().Cells())[:k] {
					lost = append(lost, c.CoordOf(idx))
				}
				checkDecodeSchedule(t, c, lost, int64(i), false)
			}
		})
	}
}

// checkSameCombinations replays a lost set's schedule on GF(2) unit
// vectors, one bit per chain, and requires every Row buffer and every
// Spare buffer to be exactly the set of chains the pivot-order
// elimination behind Plan (gf2.Matrix.Eliminate on [lost-cell
// coefficients | identity], the order gf2.System.Solve pivots in) sums
// into that cell's pivot row or that spare row. A spare row of the
// reference is its own chain plus pivot chains, so the one member
// outside the pivot chains names it.
func checkSameCombinations(t testing.TB, c *Code, distinct []grid.Coord, d *DecodeSchedule) {
	t.Helper()
	chains := c.Layout().Chains()
	n, nu := len(chains), len(distinct)
	col := make(map[grid.Coord]int, nu)
	for i, cell := range distinct {
		col[cell] = i
	}
	ref := gf2.NewMatrix(n, nu+n)
	for r, ch := range chains {
		for _, cell := range ch.Cells {
			if i, ok := col[cell]; ok {
				ref.Flip(r, i)
			}
		}
		ref.Flip(r, nu+r)
	}
	pivots := ref.Eliminate(nu)

	got := gf2.NewMatrix(n, n)
	for r := 0; r < n; r++ {
		got.Flip(r, r)
	}
	for _, op := range d.Ops {
		got.XORRows(op.Dst, op.Src)
	}
	same := func(pos, buf int) bool {
		for r := 0; r < n; r++ {
			if ref.Get(pos, nu+r) != got.Get(buf, r) {
				return false
			}
		}
		return true
	}
	for pos, i := range pivots {
		if buf, solved := d.Row[distinct[i]]; solved && !same(pos, buf) {
			t.Fatalf("%v %v: buffer %d of %v is not the sum of chains the pivot-order elimination forms", c, distinct, buf, distinct[i])
		}
	}
	spare := map[int]bool{}
	for _, r := range d.Spare {
		spare[r] = true
	}
	if len(spare) != n-len(pivots) {
		t.Fatalf("%v %v: %d spare rows, the pivot-order elimination leaves %d", c, distinct, len(spare), n-len(pivots))
	}
	for pos := len(pivots); pos < n; pos++ {
		own := -1
		for r := 0; r < n; r++ {
			if ref.Get(pos, nu+r) && spare[r] {
				if own >= 0 {
					t.Fatalf("%v %v: reference spare row sums spare chains %d and %d", c, distinct, own, r)
				}
				own = r
			}
		}
		if own < 0 || !same(pos, own) {
			t.Fatalf("%v %v: spare buffer %d is not the sum of chains the pivot-order elimination forms", c, distinct, own)
		}
	}
}

// TestDecodeScheduleSameCombinations holds the sparse schedule to the
// sums of chains of the elimination behind Plan: every kill of one, two
// and three columns of four codes × p ∈ {5, 7}, TIP p=13 with disks 1, 5
// and 9 dead, and per code two patterns that leave cells unsolved — four
// dead columns, and three dead columns plus the survivor an escalation
// adds — where Row must still name the right buffer for every solved
// cell.
func TestDecodeScheduleSameCombinations(t *testing.T) {
	check := func(c *Code, lost []grid.Coord, partial bool) {
		t.Helper()
		d, err := c.DecodeSchedule(lost)
		if err != nil {
			t.Fatal(err)
		}
		if partial != (len(d.Unsolved) > 0) {
			t.Fatalf("%v %v: %d cells unsolved", c, lost, len(d.Unsolved))
		}
		checkSameCombinations(t, c, lost, d)
	}
	for _, c := range allCodes(t, smallPrimes) {
		n := c.Disks()
		for a := 0; a < n; a++ {
			check(c, columns(c, a), false)
			for b := a + 1; b < n; b++ {
				check(c, columns(c, a, b), false)
				for e := b + 1; e < n; e++ {
					check(c, columns(c, a, b, e), false)
				}
			}
		}
		check(c, columns(c, 0, 1, 2, 3), true)
		check(c, append(columns(c, 0, 2, 4), grid.Coord{Row: 1, Col: 1}), true)
	}
	tip := MustNew("tip", 13)
	check(tip, columns(tip, 1, 5, 9), false)
}

// FuzzDecodeSchedule is the same property over fuzzed lost sets: the
// bytes pick cells (duplicates allowed, as PartialRecoveryPlan allows
// them) of one of the four codes at p = 5 or 7. The checked-in corpus
// holds whole-column kills at and beyond tolerance, a mixed pattern that
// leaves some cells a single chain, an over-determined one (two columns:
// spare rows) and a scattered one.
func FuzzDecodeSchedule(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1), []byte{0, 1, 2})
	f.Fuzz(func(t *testing.T, codeIdx, pIdx uint8, seed int64, cells []byte) {
		names := Names()
		c := MustNew(names[int(codeIdx)%len(names)], smallPrimes[int(pIdx)%len(smallPrimes)])
		if len(cells) == 0 || len(cells) > c.Layout().Cells() {
			t.Skip()
		}
		lost := make([]grid.Coord, len(cells))
		for i, b := range cells {
			lost[i] = c.CoordOf(int(b) % c.Layout().Cells())
		}
		checkDecodeSchedule(t, c, lost, seed, false)
	})
}
