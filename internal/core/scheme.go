package core

import (
	"fmt"

	"fbf/internal/cache"
	"fbf/internal/codes"
	"fbf/internal/grid"
)

// Strategy selects how recovery parity chains are chosen for the lost
// chunks of a partial stripe error.
type Strategy uint8

const (
	// StrategyTypical repairs every lost chunk through its horizontal
	// parity chain (falling back to other directions only when the
	// horizontal chain is unusable) — the conventional recovery the
	// paper's Figure 2(a) depicts. Chains of distinct rows never overlap,
	// so no chunk is shared.
	StrategyTypical Strategy = iota
	// StrategyLooped cycles through the three chain directions across
	// consecutive lost chunks (horizontal, diagonal, anti-diagonal,
	// horizontal, ...), the FBF recovery generation of Section III-A.1;
	// crossing directions makes chains share chunks.
	StrategyLooped
	// StrategyGreedy picks, per lost chunk, the usable chain that adds
	// the fewest chunks not already scheduled for fetching (ties broken
	// toward more sharing) — an ablation that pushes chain selection
	// beyond the paper's looping heuristic.
	StrategyGreedy
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case StrategyTypical:
		return "typical"
	case StrategyLooped:
		return "looped"
	case StrategyGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// ParseStrategy converts a name to a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "typical":
		return StrategyTypical, nil
	case "looped", "fbf":
		return StrategyLooped, nil
	case "greedy":
		return StrategyGreedy, nil
	default:
		return 0, fmt.Errorf("core: unknown strategy %q", name)
	}
}

// SelectedChain records the repair chain chosen for one lost chunk.
type SelectedChain struct {
	Lost  grid.Coord   // the chunk being rebuilt
	Chain grid.ChainID // the chain used to rebuild it
	Fetch []grid.Coord // surviving chain members, in request order

	// Decoded marks a chain produced by the GF(2) decoder fallback of
	// RegenerateScheme rather than a single parity chain: Chain is zero
	// and Fetch lists the surviving cells whose XOR reproduces Lost.
	Decoded bool
}

// Scheme is a complete recovery plan for one partial stripe error: the
// chain per lost chunk, the resulting chunk-request sequence and the
// priority dictionary FBF's cache consults (Table II/III of the paper).
type Scheme struct {
	Code     *codes.Code
	Err      PartialStripeError
	Strategy Strategy
	Selected []SelectedChain

	// Priorities maps each fetched chunk to the number of selected
	// chains that share it (1, 2 or 3+). Chunks shared by more chains
	// save more re-reads and get higher cache priority. FBF.SetScheme
	// reads shares instead; the map stays for callers that merge or
	// range over the dictionary (PriorityIDs, DOR, reports, benchmark).
	// Read-only: SetScheme reads the counts as RegenerateScheme made them,
	// so an edit here reaches SetPriorities(PriorityIDs()) but not it.
	Priorities map[grid.Coord]int
	shares     []int // Priorities' counts by Code.CellIndex, 0 if none

	// Decode is the GF(2) decode of the whole erased set behind the
	// Decoded selections (codes.DecodeSchedule; their Fetch lists are its
	// Plan), nil when every repair cell kept a single chain.
	Decode *codes.DecodeSchedule
}

// GenerateScheme builds the recovery scheme for one partial stripe error
// under the given strategy: RegenerateScheme with the error's lost cells
// to repair and nothing else erased. A valid error is always rebuilt
// through single chains; a lost cell that would need the decoder is an
// error.
func GenerateScheme(code *codes.Code, e PartialStripeError, strategy Strategy) (*Scheme, error) {
	if err := e.Validate(code); err != nil {
		return nil, err
	}
	scheme, _, err := RegenerateScheme(code, e, e.LostCells(), nil, strategy)
	if err != nil {
		return nil, err
	}
	if scheme.Decode != nil {
		return nil, fmt.Errorf("core: no usable chain for some lost chunk of %v", e)
	}
	return scheme, nil
}

// chainFor picks the repair chain for one lost cell under the strategy
// (k is the cell's ordinal among the cells being repaired, which the
// looping strategy cycles on). lost and shares are indexed by
// code.CellIndex; shares counts the chains already scheduled to fetch
// each cell. It returns nil when no single chain can rebuild the cell —
// every chain through it holds another lost cell.
func chainFor(code *codes.Code, lost []bool, shares []int, cell grid.Coord, k int, strategy Strategy) (*grid.Chain, error) {
	// usable returns the chain of the given kind through cell, provided
	// it contains no other lost cell (a chain with two erasures cannot
	// rebuild either on its own).
	usable := func(kind grid.ChainKind) (*grid.Chain, bool) {
		ch, ok := code.Layout().ChainThrough(cell, kind)
		if !ok {
			return nil, false
		}
		for _, m := range ch.Cells {
			if m != cell && lost[code.CellIndex(m)] {
				return nil, false
			}
		}
		return ch, true
	}

	switch strategy {
	case StrategyTypical:
		for _, kind := range grid.Kinds() {
			if ch, ok := usable(kind); ok {
				return ch, nil
			}
		}
	case StrategyLooped:
		kinds := grid.Kinds()
		for off := 0; off < len(kinds); off++ {
			if ch, ok := usable(kinds[(k+off)%len(kinds)]); ok {
				return ch, nil
			}
		}
	case StrategyGreedy:
		var chosen *grid.Chain
		bestFresh, bestOverlap := int(^uint(0)>>1), -1
		for _, kind := range grid.Kinds() {
			ch, ok := usable(kind)
			if !ok {
				continue
			}
			overlap, fresh := 0, 0
			for _, m := range ch.Cells {
				if m == cell {
					continue
				}
				if shares[code.CellIndex(m)] > 0 {
					overlap++
				} else {
					fresh++
				}
			}
			// Minimize the marginal number of new chunks to read;
			// break ties toward more sharing (higher priorities).
			if fresh < bestFresh || (fresh == bestFresh && overlap > bestOverlap) {
				chosen, bestFresh, bestOverlap = ch, fresh, overlap
			}
		}
		return chosen, nil
	default:
		return nil, fmt.Errorf("core: invalid strategy %v", strategy)
	}
	return nil, nil
}

// addChain appends one chain selection to the scheme and counts it
// against each cell it fetches (shares, indexed by Code.CellIndex).
func (s *Scheme) addChain(cell grid.Coord, ch *grid.Chain, shares []int) {
	fetch := make([]grid.Coord, 0, len(ch.Cells)-1)
	for _, m := range ch.Cells {
		if m == cell {
			continue
		}
		fetch = append(fetch, m)
		shares[s.Code.CellIndex(m)]++
	}
	s.Selected = append(s.Selected, SelectedChain{Lost: cell, Chain: ch.ID(), Fetch: fetch})
}

// Requests returns the chunk-request sequence the reconstruction engine
// replays against the cache: for each selected chain in order, its
// surviving members. Chunks shared by several chains appear once per
// chain — the repeats are exactly the requests a good cache turns into
// hits.
func (s *Scheme) Requests() []grid.Coord {
	var out []grid.Coord
	for _, sel := range s.Selected {
		out = append(out, sel.Fetch...)
	}
	return out
}

// RequestIDs is Requests with each coordinate qualified by Err.Stripe,
// ready to feed a cache policy.
func (s *Scheme) RequestIDs() []cache.ChunkID {
	reqs := s.Requests()
	out := make([]cache.ChunkID, len(reqs))
	for i, r := range reqs {
		out[i] = cache.ChunkID{Stripe: s.Err.Stripe, Cell: r}
	}
	return out
}

// PriorityIDs returns the priority dictionary keyed by ChunkID on
// Err.Stripe, ready for cache.PriorityAware.SetPriorities.
func (s *Scheme) PriorityIDs() map[cache.ChunkID]int {
	out := make(map[cache.ChunkID]int, len(s.Priorities))
	for cell, pr := range s.Priorities {
		out[cache.ChunkID{Stripe: s.Err.Stripe, Cell: cell}] = pr
	}
	return out
}

// priority is PriorityIDs()[id] without the map, FBF's lookup after
// SetScheme: 0 for a chunk on another stripe or outside the layout.
func (s *Scheme) priority(id cache.ChunkID) int {
	if id.Stripe != s.Err.Stripe || !s.Code.Layout().InBounds(id.Cell) {
		return 0
	}
	return s.shares[s.Code.CellIndex(id.Cell)]
}

// UniqueFetches returns the number of distinct chunks the scheme reads —
// the read I/O count when every shared request hits in cache.
func (s *Scheme) UniqueFetches() int { return len(s.Priorities) }

// TotalRequests returns the total number of chunk requests including
// shared re-references.
func (s *Scheme) TotalRequests() int {
	n := 0
	for _, sel := range s.Selected {
		n += len(sel.Fetch)
	}
	return n
}

// SharedChunks returns how many fetched chunks are shared by at least
// two selected chains.
func (s *Scheme) SharedChunks() int {
	n := 0
	for _, pr := range s.Priorities {
		if pr >= 2 {
			n++
		}
	}
	return n
}

// PriorityGroups returns the fetched chunks bucketed by FBF priority
// (index 0 → priority 1, index 1 → priority 2, index 2 → priority 3+),
// mirroring Table III of the paper.
func (s *Scheme) PriorityGroups() [3][]grid.Coord {
	var groups [3][]grid.Coord
	for cell, pr := range s.Priorities {
		groups[clampPriority(pr)-1] = append(groups[clampPriority(pr)-1], cell)
	}
	for i := range groups {
		sortCoords(groups[i])
	}
	return groups
}

func clampPriority(pr int) int {
	if pr >= 3 {
		return 3
	}
	if pr < 1 {
		return 1
	}
	return pr
}

func sortCoords(cs []grid.Coord) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Less(cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
