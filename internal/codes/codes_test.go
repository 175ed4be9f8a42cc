package codes

import (
	"math/rand"
	"testing"

	"fbf/internal/chunk"
	"fbf/internal/grid"
)

// smallPrimes keeps exhaustive per-code tests fast; large primes are
// covered by TestTripleFaultCoverageLargePrimes and cmd/mdscheck.
var smallPrimes = []int{5, 7}

func allCodes(t testing.TB, primes []int) []*Code {
	t.Helper()
	var out []*Code
	for _, p := range primes {
		for _, name := range Names() {
			c, err := New(name, p)
			if err != nil {
				t.Fatalf("New(%s, %d): %v", name, p, err)
			}
			out = append(out, c)
		}
	}
	return out
}

func randomEncodedStripe(t testing.TB, c *Code, seed int64, chunkSize int) Stripe {
	t.Helper()
	s := randomDataStripe(c, seed, chunkSize)
	c.Encode(s)
	return s
}

func randomDataStripe(c *Code, seed int64, chunkSize int) Stripe {
	rng := rand.New(rand.NewSource(seed))
	s := c.NewStripe(chunkSize)
	for _, cell := range c.Layout().DataCells() {
		rng.Read(s[c.CellIndex(cell)])
	}
	return s
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 4 {
		t.Fatalf("Names() = %v", names)
	}
	want := []string{"hdd1", "star", "tip", "triplestar"}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], n)
		}
	}
	if _, err := New("nope", 5); err == nil {
		t.Error("New(nope) should fail")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustNew should panic for unknown code")
			}
		}()
		MustNew("nope", 5)
	}()
}

func TestConstructorsRejectBadPrimes(t *testing.T) {
	for _, name := range Names() {
		for _, p := range []int{0, 1, 2, 4, 6, 9, 15} {
			if _, err := New(name, p); err == nil {
				t.Errorf("New(%s, %d) should fail", name, p)
			}
		}
	}
}

func TestIsPrime(t *testing.T) {
	primes := map[int]bool{2: true, 3: true, 5: true, 7: true, 11: true, 13: true, 17: true}
	for n := -3; n <= 17; n++ {
		if got := IsPrime(n); got != primes[n] {
			t.Errorf("IsPrime(%d) = %v", n, got)
		}
	}
}

func TestDimensions(t *testing.T) {
	cases := []struct {
		name  string
		p     int
		disks int
		rows  int
	}{
		{"star", 5, 8, 4},
		{"star", 7, 10, 6},
		{"triplestar", 5, 7, 4},
		{"triplestar", 7, 9, 6},
		{"tip", 5, 6, 4},
		{"tip", 7, 8, 6},
		{"hdd1", 5, 6, 4},
		{"hdd1", 7, 8, 6},
	}
	for _, c := range cases {
		code := MustNew(c.name, c.p)
		if code.Disks() != c.disks || code.Rows() != c.rows {
			t.Errorf("%v: disks=%d rows=%d, want %d/%d", code, code.Disks(), code.Rows(), c.disks, c.rows)
		}
		if code.P() != c.p || code.Name() != c.name {
			t.Errorf("%v: identity accessors wrong", code)
		}
	}
}

func TestStorageOptimality(t *testing.T) {
	// TIP and HDD1 are storage-optimal on p+1 disks: exactly 3(p-1)
	// parity cells. STAR and Triple-Star hold 3 parity cells per row.
	for _, p := range smallPrimes {
		for _, name := range Names() {
			code := MustNew(name, p)
			got := len(code.Layout().ParityCells())
			if want := 3 * (p - 1); got != want {
				t.Errorf("%v: %d parity cells, want %d", code, got, want)
			}
		}
	}
}

func TestCellIndexRoundTrip(t *testing.T) {
	code := MustNew("tip", 5)
	for r := 0; r < code.Rows(); r++ {
		for c := 0; c < code.Disks(); c++ {
			coord := grid.Coord{Row: r, Col: c}
			if got := code.CoordOf(code.CellIndex(coord)); got != coord {
				t.Fatalf("round trip %v -> %v", coord, got)
			}
		}
	}
}

func TestEncodeVerify(t *testing.T) {
	for _, code := range allCodes(t, smallPrimes) {
		s := randomEncodedStripe(t, code, 1, 128)
		if !code.Verify(s) {
			t.Errorf("%v: encoded stripe fails verification", code)
		}
		// Corrupt one data chunk: verification must fail.
		s[code.CellIndex(code.Layout().DataCells()[0])][0] ^= 0x01
		if code.Verify(s) {
			t.Errorf("%v: corrupted stripe passes verification", code)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	code := MustNew("star", 5)
	a := randomEncodedStripe(t, code, 3, 64)
	b := randomEncodedStripe(t, code, 3, 64)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("cell %d differs between identical encodes", i)
		}
	}
}

func TestEncodePanicsOnWrongStripe(t *testing.T) {
	code := MustNew("tip", 5)
	defer func() {
		if recover() == nil {
			t.Error("want panic for wrong-size stripe")
		}
	}()
	code.Encode(make(Stripe, 3))
}

func TestRecoverSingleColumn(t *testing.T) {
	for _, code := range allCodes(t, smallPrimes) {
		for col := 0; col < code.Disks(); col++ {
			s := randomEncodedStripe(t, code, int64(col), 64)
			want := make([]chunk.Chunk, code.Rows())
			var lost []grid.Coord
			for r := 0; r < code.Rows(); r++ {
				cell := grid.Coord{Row: r, Col: col}
				want[r] = chunk.XOR(s[code.CellIndex(cell)]) // copy
				lost = append(lost, cell)
				clear(s[code.CellIndex(cell)])
			}
			if err := code.Recover(s, lost); err != nil {
				t.Fatalf("%v col %d: %v", code, col, err)
			}
			for r := 0; r < code.Rows(); r++ {
				if !s[code.CellIndex(grid.Coord{Row: r, Col: col})].Equal(want[r]) {
					t.Fatalf("%v col %d row %d: wrong recovery", code, col, r)
				}
			}
		}
	}
}

func TestRecoverTripleColumns(t *testing.T) {
	for _, code := range allCodes(t, smallPrimes) {
		n := code.Disks()
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				for d := b + 1; d < n; d++ {
					s := randomEncodedStripe(t, code, int64(a*100+b*10+d), 32)
					backup := make(Stripe, len(s))
					for i := range s {
						backup[i] = chunk.XOR(s[i])
					}
					var lost []grid.Coord
					for _, col := range []int{a, b, d} {
						for r := 0; r < code.Rows(); r++ {
							cell := grid.Coord{Row: r, Col: col}
							clear(s[code.CellIndex(cell)])
							lost = append(lost, cell)
						}
					}
					if err := code.Recover(s, lost); err != nil {
						t.Fatalf("%v cols (%d,%d,%d): %v", code, a, b, d, err)
					}
					for i := range s {
						if !s[i].Equal(backup[i]) {
							t.Fatalf("%v cols (%d,%d,%d): cell %v wrong", code, a, b, d, code.CoordOf(i))
						}
					}
				}
			}
		}
	}
}

func TestRecoverPartialStripe(t *testing.T) {
	// Every contiguous run of up to p-1 chunks on any single disk — the
	// exact failure mode of the paper's evaluation — must be recoverable.
	for _, code := range allCodes(t, smallPrimes) {
		p := code.P()
		for col := 0; col < code.Disks(); col++ {
			for start := 0; start < code.Rows(); start++ {
				for size := 1; size <= p-1 && start+size <= code.Rows(); size++ {
					s := randomEncodedStripe(t, code, int64(col*1000+start*10+size), 32)
					var lost []grid.Coord
					var want []chunk.Chunk
					for r := start; r < start+size; r++ {
						cell := grid.Coord{Row: r, Col: col}
						want = append(want, chunk.XOR(s[code.CellIndex(cell)]))
						clear(s[code.CellIndex(cell)])
						lost = append(lost, cell)
					}
					if err := code.Recover(s, lost); err != nil {
						t.Fatalf("%v partial (%d,%d+%d): %v", code, col, start, size, err)
					}
					for i, r := 0, start; r < start+size; i, r = i+1, r+1 {
						if !s[code.CellIndex(grid.Coord{Row: r, Col: col})].Equal(want[i]) {
							t.Fatalf("%v partial (%d,%d+%d): wrong contents", code, col, start, size)
						}
					}
				}
			}
		}
	}
}

func TestRecoveryPlanErrors(t *testing.T) {
	code := MustNew("star", 5)
	if _, err := code.RecoveryPlan([]grid.Coord{{Row: 99, Col: 0}}); err == nil {
		t.Error("out-of-bounds lost cell should error")
	}
	// Erase four full columns of an MDS 3DFT code: must be unrecoverable.
	var lost []grid.Coord
	for col := 0; col < 4; col++ {
		for r := 0; r < code.Rows(); r++ {
			lost = append(lost, grid.Coord{Row: r, Col: col})
		}
	}
	if _, err := code.RecoveryPlan(lost); err == nil {
		t.Error("four-column erasure should be unrecoverable")
	}
	if err := code.Recover(code.NewStripe(16), lost); err == nil {
		t.Error("Recover should propagate plan error")
	}
}

func TestCanRecoverColumns(t *testing.T) {
	code := MustNew("triplestar", 5)
	if !code.CanRecoverColumns(0, 1, 2) {
		t.Error("triple failure should be recoverable")
	}
	if code.CanRecoverColumns(0, 1, 2, 3) {
		t.Error("quadruple failure should not be recoverable")
	}
	if code.CanRecoverColumns(-1) || code.CanRecoverColumns(code.Disks()) {
		t.Error("out-of-range column should report unrecoverable")
	}
}

func TestTripleFaultCoverageSmallPrimes(t *testing.T) {
	for _, code := range allCodes(t, smallPrimes) {
		ok, total, failing := code.TripleFaultCoverage()
		if ok != total || len(failing) != 0 {
			t.Errorf("%v: coverage %d/%d, failing %v", code, ok, total, failing)
		}
	}
}

func TestTripleFaultCoverageLargePrimes(t *testing.T) {
	if testing.Short() {
		t.Skip("large-prime coverage check skipped in -short mode")
	}
	for _, code := range allCodes(t, []int{11, 13}) {
		ok, total, _ := code.TripleFaultCoverage()
		if ok != total {
			t.Errorf("%v: coverage %d/%d", code, ok, total)
		}
	}
}

func TestChainStructure(t *testing.T) {
	for _, code := range allCodes(t, smallPrimes) {
		layout := code.Layout()
		perKind := map[grid.ChainKind]int{}
		for _, ch := range layout.Chains() {
			perKind[ch.Kind]++
			if len(ch.Cells) < 2 {
				t.Errorf("%v: chain %v too short", code, ch.ID())
			}
		}
		// Every code has p-1 chains per direction.
		for _, k := range grid.Kinds() {
			if perKind[k] != code.P()-1 {
				t.Errorf("%v: %d %v chains, want %d", code, perKind[k], k, code.P()-1)
			}
		}
		// Every cell is on at least one chain (otherwise unrecoverable),
		// and every data cell is on a horizontal chain.
		for r := 0; r < layout.Rows(); r++ {
			for c := 0; c < layout.Cols(); c++ {
				cell := grid.Coord{Row: r, Col: c}
				chains := layout.ChainsThrough(cell)
				if len(chains) == 0 {
					t.Errorf("%v: cell %v on no chain", code, cell)
				}
			}
		}
	}
}

func TestSTARAdjusterSharing(t *testing.T) {
	// STAR's adjuster cells (diagonal class p-1) must be members of every
	// diagonal chain — the property behind the paper's observation about
	// STAR's hit ratio.
	p := 5
	code := MustNew("star", p)
	layout := code.Layout()
	adjuster := grid.Coord{Row: p - 2, Col: 1} // (3+1)%5 == 4 == p-1
	count := 0
	for _, ch := range layout.ChainsThrough(adjuster) {
		if ch.Kind == grid.Diagonal {
			count++
		}
	}
	if count != p-1 {
		t.Errorf("adjuster cell on %d diagonal chains, want %d", count, p-1)
	}
}

func TestVerticalPlacementDiffers(t *testing.T) {
	// TIP and HDD1 must be genuinely different layouts.
	tip := MustNew("tip", 7)
	hdd1 := MustNew("hdd1", 7)
	same := true
	tp := tip.Layout().ParityCells()
	hp := hdd1.Layout().ParityCells()
	if len(tp) != len(hp) {
		same = false
	} else {
		for i := range tp {
			if tp[i] != hp[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("tip and hdd1 have identical parity placement")
	}
}

func TestSearchPlacementFindsFullCoverage(t *testing.T) {
	res, err := SearchPlacement(5, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Full() {
		t.Errorf("search found only %d/%d", res.Covered, res.Total)
	}
	if res.Searched == 0 {
		t.Error("search evaluated no candidates")
	}
	if _, err := SearchPlacement(4, 0, false); err == nil {
		t.Error("non-prime search should fail")
	}
	// A tiny budget must terminate early without error.
	capped, err := SearchPlacement(5, 1, false)
	if err != nil || capped.Searched > 1 {
		t.Errorf("budgeted search ran %d candidates (err=%v)", capped.Searched, err)
	}
}

func TestRecoverMatchesRecoveryPlan(t *testing.T) {
	// The plan's term lists, XORed manually, must equal Recover's output.
	code := MustNew("hdd1", 7)
	s := randomEncodedStripe(t, code, 9, 64)
	lost := []grid.Coord{{Row: 0, Col: 0}, {Row: 1, Col: 0}, {Row: 2, Col: 0}}
	want := make(map[grid.Coord]chunk.Chunk)
	plan, err := code.RecoveryPlan(lost)
	if err != nil {
		t.Fatal(err)
	}
	for cell, terms := range plan {
		acc := chunk.New(64)
		for _, term := range terms {
			chunk.XORInto(acc, s[code.CellIndex(term)])
		}
		want[cell] = acc
	}
	for _, cell := range lost {
		clear(s[code.CellIndex(cell)])
	}
	if err := code.Recover(s, lost); err != nil {
		t.Fatal(err)
	}
	for cell, w := range want {
		if !s[code.CellIndex(cell)].Equal(w) {
			t.Errorf("cell %v: Recover disagrees with manual plan evaluation", cell)
		}
	}
}

func TestPartialRecoveryPlan(t *testing.T) {
	for _, c := range allCodes(t, smallPrimes) {
		// A recoverable pattern matches RecoveryPlan with nothing unsolved;
		// duplicates in the lost list are tolerated.
		lost := []grid.Coord{{Row: 0, Col: 0}, {Row: 1, Col: 0}, {Row: 0, Col: 0}}
		plan, unsolved, err := c.PartialRecoveryPlan(lost)
		if err != nil || len(unsolved) != 0 {
			t.Fatalf("%v: unsolved=%v err=%v", c, unsolved, err)
		}
		full, err := c.RecoveryPlan(lost[:2])
		if err != nil {
			t.Fatal(err)
		}
		if len(plan) != len(full) {
			t.Errorf("%v: partial plan has %d cells, full has %d", c, len(plan), len(full))
		}
		// Beyond tolerance (4 whole columns) some cells must come back
		// unsolved, and the solved ones must still XOR-check on real bytes.
		var wide []grid.Coord
		for col := 0; col < 4; col++ {
			for r := 0; r < c.Rows(); r++ {
				wide = append(wide, grid.Coord{Row: r, Col: col})
			}
		}
		plan, unsolved, err = c.PartialRecoveryPlan(wide)
		if err != nil {
			t.Fatal(err)
		}
		if len(unsolved) == 0 {
			t.Errorf("%v: 4-column loss fully solved", c)
		}
		s := randomEncodedStripe(t, c, 5, 64)
		for cell, terms := range plan {
			acc := chunk.New(64)
			for _, m := range terms {
				chunk.XORInto(acc, s[c.CellIndex(m)])
			}
			if !acc.Equal(s[c.CellIndex(cell)]) {
				t.Errorf("%v: decoded cell %v differs from original", c, cell)
			}
		}
	}
}

func TestPartialRecoveryPlanRejectsOutOfBounds(t *testing.T) {
	c := MustNew("tip", 5)
	if _, _, err := c.PartialRecoveryPlan([]grid.Coord{{Row: 0, Col: 99}}); err == nil {
		t.Error("out-of-bounds cell accepted")
	}
}
