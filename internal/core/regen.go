package core

import (
	"fmt"

	"fbf/internal/codes"
	"fbf/internal/grid"
)

// RegenerateScheme rebuilds a recovery scheme mid-repair, after faults
// have changed the erasure pattern: repair lists the cells that still
// need reconstructing (the original error's remaining cells plus any
// chunks escalated by unrecoverable read errors), and unavailable lists
// cells that cannot be read but need no repair here (typically the
// remaining cells of failed disks, rebuilt stripe by stripe elsewhere).
//
// Per repair cell the strategy picks a parity chain exactly as
// GenerateScheme does, treating repair ∪ unavailable as erased. Cells no
// single chain can rebuild fall back to the code's GF(2) decoder
// (PartialRecoveryPlan) and appear in the scheme as Decoded selections;
// cells even the decoder cannot solve are returned in lost — data loss
// the caller must account, not an error.
//
// e identifies the stripe and original error for Scheme bookkeeping; it
// is not re-validated, since escalated patterns are exactly the ones a
// plain partial-stripe error can no longer describe.
func RegenerateScheme(code *codes.Code, e PartialStripeError, repair, unavailable []grid.Coord, strategy Strategy) (*Scheme, []grid.Coord, error) {
	lostSet := make(map[grid.Coord]bool, len(repair)+len(unavailable))
	for _, c := range append(append([]grid.Coord{}, repair...), unavailable...) {
		if !code.Layout().InBounds(c) {
			return nil, nil, fmt.Errorf("core: cell %v out of bounds", c)
		}
		lostSet[c] = true
	}

	scheme := &Scheme{Code: code, Err: e, Strategy: strategy, Priorities: make(map[grid.Coord]int)}
	planned := make(map[grid.Coord]bool)
	var decode []grid.Coord // repair cells with no usable single chain

	for k, cell := range repair {
		chosen, err := chainFor(code, lostSet, planned, cell, k, strategy)
		if err != nil {
			return nil, nil, err
		}
		if chosen == nil {
			decode = append(decode, cell)
			continue
		}
		scheme.addChain(cell, chosen, planned)
	}
	if len(decode) == 0 {
		return scheme, nil, nil
	}

	// The decoder must treat every erased cell as unknown, not just the
	// ones being repaired, or it would express repairs in terms of
	// unreadable cells.
	allLost := make([]grid.Coord, 0, len(lostSet))
	for c := range lostSet {
		allLost = append(allLost, c)
	}
	sortCoords(allLost)
	plan, unsolved, err := code.PartialRecoveryPlan(allLost)
	if err != nil {
		return nil, nil, err
	}
	unsolvedSet := make(map[grid.Coord]bool, len(unsolved))
	for _, c := range unsolved {
		unsolvedSet[c] = true
	}
	var lost []grid.Coord
	for _, cell := range decode {
		if unsolvedSet[cell] {
			lost = append(lost, cell)
			continue
		}
		fetch := plan[cell]
		for _, m := range fetch {
			scheme.Priorities[m]++
			planned[m] = true
		}
		scheme.Selected = append(scheme.Selected, SelectedChain{Lost: cell, Fetch: fetch, Decoded: true})
	}
	return scheme, lost, nil
}
