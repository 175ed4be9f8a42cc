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
// lost cells and nothing else is unavailable. It is Scheme.Regenerate
// into a new Scheme.
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
	s := new(Scheme)
	unsolved, err := s.Regenerate(code, e, repair, unavailable, strategy)
	if err != nil {
		return nil, nil, err
	}
	return s, unsolved, nil
}

// Regenerate fills s with RegenerateScheme's scheme and returns the cells
// no selection rebuilds. It is the one planner: whatever s held before is
// overwritten, and its Selected array with the Fetch lists, its share
// counts, its Priorities map and its scratch are reused, so refilling a
// scheme of the same shape allocates nothing. On an error s holds no
// usable scheme.
func (s *Scheme) Regenerate(code *codes.Code, e PartialStripeError, repair, unavailable []grid.Coord, strategy Strategy) ([]grid.Coord, error) {
	// Per-call cell sets are dense by code.CellIndex: lost marks
	// repair ∪ unavailable, shares counts the selected chains fetching
	// each cell and becomes Priorities once every chain is chosen.
	cells := code.Layout().Cells()
	s.lost = resize(s.lost, cells)
	for _, list := range [2][]grid.Coord{repair, unavailable} {
		for _, c := range list {
			if !code.Layout().InBounds(c) {
				return nil, fmt.Errorf("core: cell %v out of bounds", c)
			}
			s.lost[code.CellIndex(c)] = true
		}
	}

	// A decoded selection's Fetch is its decode's Plan entry, so the
	// Fetch arrays of a scheme that decoded are not reused. A grown
	// Selected keeps the others, and grows at least twofold.
	if s.Decode != nil {
		s.Selected = nil
	}
	if c := cap(s.Selected); c < len(repair) {
		grown := make([]SelectedChain, max(len(repair), 2*c))
		copy(grown, s.Selected[:c])
		s.Selected = grown
	}
	s.Code, s.Err, s.Strategy = code, e, strategy
	s.Selected, s.Decode = s.Selected[:0], nil
	s.shares = resize(s.shares, cells)
	var decode []grid.Coord // repair cells with no usable single chain

	for k, cell := range repair {
		chosen, err := chainFor(code, s.lost, s.shares, cell, k, strategy)
		if err != nil {
			return nil, err
		}
		if chosen == nil {
			decode = append(decode, cell)
			continue
		}
		s.addChain(cell, chosen)
	}
	if len(decode) == 0 {
		s.setPriorities()
		return nil, nil
	}

	// The decoder must treat every erased cell as unknown, not just the
	// ones being repaired, or it would express repairs in terms of
	// unreadable cells.
	allLost := make([]grid.Coord, 0, len(repair)+len(unavailable))
	for i, l := range s.lost {
		if l {
			allLost = append(allLost, code.CoordOf(i))
		}
	}
	sortCoords(allLost)
	d, err := code.DecodeSchedule(allLost)
	if err != nil {
		return nil, err
	}
	s.Decode = d
	var unsolved []grid.Coord
	for _, cell := range decode {
		fetch, solved := d.Plan[cell]
		if !solved {
			unsolved = append(unsolved, cell)
			continue
		}
		for _, m := range fetch {
			s.shares[code.CellIndex(m)]++
		}
		s.Selected = append(s.Selected, SelectedChain{Lost: cell, Fetch: fetch, Decoded: true})
	}
	s.setPriorities()
	return unsolved, nil
}

// resize returns buf cleared at length n, reusing its array when it is
// large enough.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// emptied returns buf at length 0 with room for n, reusing its array
// when it is large enough. A new array is exactly n long for an empty
// buf, so a new scheme is sized as it always was, and at least twice the
// old one otherwise, so a reused scheme stops growing after a few fills.
func emptied[T any](buf []T, n int) []T {
	if c := cap(buf); c < n {
		return make([]T, 0, max(n, 2*c))
	}
	return buf[:0]
}

// setPriorities turns the share counts, once every selection is counted,
// into the priority dictionary: sized once when the scheme is new,
// cleared and refilled when it is reused.
func (s *Scheme) setPriorities() {
	if s.Priorities == nil {
		n := 0
		for _, c := range s.shares {
			if c > 0 {
				n++
			}
		}
		s.Priorities = make(map[grid.Coord]int, n)
	} else {
		clear(s.Priorities)
	}
	for i, c := range s.shares {
		if c > 0 {
			s.Priorities[s.Code.CoordOf(i)] = c
		}
	}
}
