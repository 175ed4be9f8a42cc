package verify

import (
	"fmt"

	"fbf/internal/chunk"
	"fbf/internal/codes"
	"fbf/internal/grid"
)

// Oracle is the independent GF(2) recovery cross-check, packaged for
// callers that hold a stripe's bytes cell by cell rather than whole; the
// storage engine does not call it (its check is the parity-chain zero
// test). It wraps the same decoder plan checkPattern diffs schemes
// against: every solvable lost cell expressed as a XOR of surviving
// cells, derived by Gaussian elimination — a code path disjoint from
// parity-chain selection, so a scheme bug and a decoder bug would have to
// agree to escape.
type Oracle struct {
	plan    map[grid.Coord][]grid.Coord
	lostSet map[grid.Coord]bool
}

// NewOracle builds the decoder plan for one stripe's lost-cell set.
// Cells beyond the code's tolerance are simply absent from the plan
// (Solvable reports them); an out-of-bounds cell is an error.
func NewOracle(code *codes.Code, lost []grid.Coord) (*Oracle, error) {
	plan, _, err := code.PartialRecoveryPlan(lost)
	if err != nil {
		return nil, err
	}
	lostSet := make(map[grid.Coord]bool, len(lost))
	for _, c := range lost {
		lostSet[c] = true
	}
	return &Oracle{plan: plan, lostSet: lostSet}, nil
}

// Solvable reports whether the decoder can re-derive the cell at all.
func (o *Oracle) Solvable(cell grid.Coord) bool {
	_, ok := o.plan[cell]
	return ok
}

// Sources returns the surviving cells whose XOR re-derives cell, or nil
// when the decoder cannot solve it.
func (o *Oracle) Sources(cell grid.Coord) []grid.Coord { return o.plan[cell] }

// Check re-derives cell through the decoder plan — reading each source
// cell's bytes via read — and diffs the result against the recovered
// bytes the caller produced through its parity chain. A mismatch means
// chain recovery and the GF(2) decoder disagree: corruption in flight,
// a bad chain, or a decoder bug. The read callback must return
// surviving (or already-repaired) bytes; the oracle never asks for a
// cell in the lost set. acc and buf are the caller's scratch, each
// len(recovered) bytes (pooled, say): their contents are ignored on
// entry and garbage on return, and Check allocates
// nothing on the passing path.
func (o *Oracle) Check(cell grid.Coord, recovered, acc, buf chunk.Chunk, read func(grid.Coord, chunk.Chunk) error) error {
	sources, ok := o.plan[cell]
	if !ok {
		return fmt.Errorf("verify: oracle cannot solve %v", cell)
	}
	if len(acc) != len(recovered) || len(buf) != len(recovered) {
		return fmt.Errorf("verify: oracle scratch is %d and %d bytes for a %d-byte chunk", len(acc), len(buf), len(recovered))
	}
	clear(acc)
	for _, src := range sources {
		if o.lostSet[src] {
			return fmt.Errorf("verify: oracle plan for %v reads lost cell %v", cell, src)
		}
		if err := read(src, buf); err != nil {
			return fmt.Errorf("verify: oracle read %v: %w", src, err)
		}
		chunk.XORInto(acc, buf)
	}
	return Diff(cell, acc, recovered)
}

// Diff compares the oracle's re-derivation of cell with the bytes the
// caller recovered for it. It is the one place the disagreement is
// worded, shared by Check and by callers that accumulate Sources(cell)
// themselves.
func Diff(cell grid.Coord, derived, recovered chunk.Chunk) error {
	if off := firstDiff(derived, recovered); off >= 0 {
		return fmt.Errorf("verify: chain recovery and gf2 oracle disagree on %v (first diff at offset %d)", cell, off)
	}
	return nil
}
