package codes

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fbf/internal/chunk"
	"fbf/internal/grid"
)

// TestPropertyEncodeVerify: any random data contents encode to a stripe
// whose every chain XORs to zero, for every code family.
func TestPropertyEncodeVerify(t *testing.T) {
	err := quick.Check(func(seed int64, pick uint8) bool {
		name := Names()[int(pick)%len(Names())]
		code := MustNew(name, 7)
		s := randomEncodedStripe(t, code, seed, 48)
		return code.Verify(s)
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

// TestPropertyCorruptionDetected: flipping any single bit of an encoded
// stripe breaks verification.
func TestPropertyCorruptionDetected(t *testing.T) {
	err := quick.Check(func(seed int64, cellPick, bytePick uint16, bit uint8) bool {
		code := MustNew("tip", 5)
		s := randomEncodedStripe(t, code, seed, 32)
		cell := int(cellPick) % len(s)
		// Only cells covered by at least one chain can be detected; in
		// our layouts that is every cell.
		s[cell][int(bytePick)%32] ^= 1 << (bit % 8)
		return !code.Verify(s)
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

// TestPropertyRandomErasureRoundTrip: erasing any random set of cells
// confined to at most three columns decodes back to the original bytes.
func TestPropertyRandomErasureRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 60; trial++ {
		name := Names()[rng.Intn(len(Names()))]
		code := MustNew(name, 7)
		s := randomEncodedStripe(t, code, int64(trial), 32)
		backup := make([]chunk.Chunk, len(s))
		for i := range s {
			backup[i] = chunk.XOR(s[i])
		}
		// Pick up to 3 columns, erase a random subset of their cells.
		ncols := 1 + rng.Intn(3)
		cols := rng.Perm(code.Disks())[:ncols]
		var lost []grid.Coord
		for _, col := range cols {
			for r := 0; r < code.Rows(); r++ {
				if rng.Intn(2) == 0 {
					cell := grid.Coord{Row: r, Col: col}
					lost = append(lost, cell)
					clear(s[code.CellIndex(cell)])
				}
			}
		}
		if len(lost) == 0 {
			continue
		}
		if err := code.Recover(s, lost); err != nil {
			t.Fatalf("trial %d %s: erasure within %d columns must decode: %v", trial, name, ncols, err)
		}
		for i := range s {
			if !s[i].Equal(backup[i]) {
				t.Fatalf("trial %d %s: cell %v wrong after recovery", trial, name, code.CoordOf(i))
			}
		}
	}
}

// TestPropertyChainsOneCellPerColumnForHorizontal: the scheme
// generator's reliance that horizontal chains touch each column at most
// once (so any single-column error leaves them usable).
func TestPropertyChainsOneCellPerColumnForHorizontal(t *testing.T) {
	for _, name := range Names() {
		for _, p := range []int{5, 7, 11} {
			code := MustNew(name, p)
			for _, ch := range code.Layout().Chains() {
				if ch.Kind != grid.Horizontal {
					continue
				}
				seen := map[int]bool{}
				for _, cell := range ch.Cells {
					if seen[cell.Col] {
						t.Fatalf("%s(p=%d): horizontal chain %v has two cells in column %d", name, p, ch.ID(), cell.Col)
					}
					seen[cell.Col] = true
				}
			}
		}
	}
}

// TestPropertyVerticalChainsOneCellPerColumn: the vertical-family codes
// (TIP, HDD1) and Triple-Star keep every chain at one cell per column,
// which guarantees single-column errors always have three usable
// chains. (STAR's adjuster chains legitimately violate this.)
func TestPropertyVerticalChainsOneCellPerColumn(t *testing.T) {
	for _, name := range []string{"tip", "hdd1", "triplestar"} {
		code := MustNew(name, 11)
		for _, ch := range code.Layout().Chains() {
			seen := map[int]bool{}
			for _, cell := range ch.Cells {
				if seen[cell.Col] {
					t.Fatalf("%s: chain %v has two cells in column %d", name, ch.ID(), cell.Col)
				}
				seen[cell.Col] = true
			}
		}
	}
}

// TestPropertyMaterializeStripeIsEncoded ties MaterializeStripe and
// RebuildChunk to Verify.
func TestPropertyMaterializeStripeIsEncoded(t *testing.T) {
	for _, name := range Names() {
		code := MustNew(name, 5)
		s := code.MaterializeStripe(99, 64)
		if !code.Verify(Stripe(s)) {
			t.Errorf("%s: materialized stripe not encoded", name)
		}
		// RebuildChunk agrees with the stripe contents on every chain.
		for _, ch := range code.Layout().Chains() {
			lost := ch.Cells[0]
			got, err := code.RebuildChunk(ch.ID(), lost, s)
			if err != nil {
				t.Fatalf("%s chain %v: %v", name, ch.ID(), err)
			}
			if !got.Equal(s[code.CellIndex(lost)]) {
				t.Errorf("%s chain %v: RebuildChunk mismatch", name, ch.ID())
			}
		}
	}
}

func TestRebuildChunkErrors(t *testing.T) {
	code := MustNew("tip", 5)
	s := code.MaterializeStripe(1, 16)
	if _, err := code.RebuildChunk(grid.ChainID{Kind: grid.Diagonal, Index: 99}, grid.Coord{}, s); err == nil {
		t.Error("unknown chain accepted")
	}
	if _, err := code.RebuildChunk(grid.ChainID{Kind: grid.Horizontal, Index: 0}, grid.Coord{Row: 3, Col: 0}, s); err == nil {
		t.Error("cell outside chain accepted")
	}
}
