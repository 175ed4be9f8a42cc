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
// GenerateScheme is its case with no escalation: repair is the error's
// lost cells and nothing else is unavailable.
//
// Per repair cell the strategy picks a parity chain, treating repair ∪
// unavailable as erased; these selections come first, in repair order.
// Cells no single chain can rebuild fall back to the code's GF(2)
// decoder: the lost set's decode is kept as Scheme.Decode, and the cells
// it solves follow as Decoded selections; cells even the decoder cannot
// solve are returned in lost — data loss the caller must account, not an
// error.
//
// e identifies the stripe and original error for Scheme bookkeeping; it
// is not re-validated, since escalated patterns are exactly the ones a
// plain partial-stripe error can no longer describe.
func RegenerateScheme(code *codes.Code, e PartialStripeError, repair, unavailable []grid.Coord, strategy Strategy) (*Scheme, []grid.Coord, error) {
	// Per-call cell sets are dense by code.CellIndex: lost marks
	// repair ∪ unavailable, shares counts the selected chains fetching
	// each cell and becomes Priorities once every chain is chosen.
	cells := code.Layout().Cells()
	lost := make([]bool, cells)
	for _, list := range [2][]grid.Coord{repair, unavailable} {
		for _, c := range list {
			if !code.Layout().InBounds(c) {
				return nil, nil, fmt.Errorf("core: cell %v out of bounds", c)
			}
			lost[code.CellIndex(c)] = true
		}
	}

	scheme := &Scheme{Code: code, Err: e, Strategy: strategy, Selected: make([]SelectedChain, 0, len(repair))}
	shares := make([]int, cells)
	var decode []grid.Coord // repair cells with no usable single chain

	for k, cell := range repair {
		chosen, err := chainFor(code, lost, shares, cell, k, strategy)
		if err != nil {
			return nil, nil, err
		}
		if chosen == nil {
			decode = append(decode, cell)
			continue
		}
		scheme.addChain(cell, chosen, shares)
	}
	if len(decode) == 0 {
		scheme.Priorities = priorities(code, shares)
		return scheme, nil, nil
	}

	// The decoder must treat every erased cell as unknown, not just the
	// ones being repaired, or it would express repairs in terms of
	// unreadable cells.
	allLost := make([]grid.Coord, 0, len(repair)+len(unavailable))
	for i, l := range lost {
		if l {
			allLost = append(allLost, code.CoordOf(i))
		}
	}
	sortCoords(allLost)
	d, err := code.DecodeSchedule(allLost)
	if err != nil {
		return nil, nil, err
	}
	scheme.Decode = d
	var unsolved []grid.Coord
	for _, cell := range decode {
		fetch, solved := d.Plan[cell]
		if !solved {
			unsolved = append(unsolved, cell)
			continue
		}
		for _, m := range fetch {
			shares[code.CellIndex(m)]++
		}
		scheme.Selected = append(scheme.Selected, SelectedChain{Lost: cell, Fetch: fetch, Decoded: true})
	}
	scheme.Priorities = priorities(code, shares)
	return scheme, unsolved, nil
}

// priorities turns per-cell share counts into the priority dictionary,
// sized once.
func priorities(code *codes.Code, shares []int) map[grid.Coord]int {
	n := 0
	for _, s := range shares {
		if s > 0 {
			n++
		}
	}
	out := make(map[grid.Coord]int, n)
	for i, s := range shares {
		if s > 0 {
			out[code.CoordOf(i)] = s
		}
	}
	return out
}
