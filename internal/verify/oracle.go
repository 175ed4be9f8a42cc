package verify

import (
	"fbf/internal/codes"
	"fbf/internal/grid"
)

// Oracle is the independent GF(2) recovery plan of one stripe's lost-cell
// set, packaged for callers that hold a stripe's bytes cell by cell rather
// than whole; the storage engine does not call it (its check is the
// parity-chain zero test). It wraps the same decoder plan checkPattern
// diffs schemes against: every solvable lost cell expressed as a XOR of
// surviving cells, derived by Gaussian elimination — a code path disjoint
// from parity-chain selection, so a scheme bug and a decoder bug would
// have to agree to escape.
type Oracle struct {
	plan map[grid.Coord][]grid.Coord
}

// NewOracle builds the decoder plan for one stripe's lost-cell set.
// Cells beyond the code's tolerance are simply absent from the plan
// (Sources returns nil for them); an out-of-bounds cell is an error.
func NewOracle(code *codes.Code, lost []grid.Coord) (*Oracle, error) {
	plan, _, err := code.PartialRecoveryPlan(lost)
	if err != nil {
		return nil, err
	}
	return &Oracle{plan: plan}, nil
}

// Sources returns the surviving cells whose XOR re-derives cell, or nil
// when the decoder cannot solve it.
func (o *Oracle) Sources(cell grid.Coord) []grid.Coord { return o.plan[cell] }
