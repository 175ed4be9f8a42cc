package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fbf/internal/cache"
	"fbf/internal/codes"
	"fbf/internal/grid"
)

// installSchemes returns the schemes the installer differential replays
// for one code and strategy, each on its own stripe: partial stripe
// errors from GenerateScheme, and RegenerateScheme repairs of one column
// with one or two other columns unavailable, so that Decoded selections
// (fetches counted after the single chains) are among them.
func installSchemes(t *testing.T, code *codes.Code, strategy Strategy) []*Scheme {
	t.Helper()
	column := func(col int) []grid.Coord {
		out := make([]grid.Coord, code.Rows())
		for r := range out {
			out[r] = grid.Coord{Row: r, Col: col}
		}
		return out
	}
	var out []*Scheme
	stripe := 0
	for size := 1; size <= code.MaxPartialSize(); size++ {
		e := PartialStripeError{Stripe: stripe, Disk: stripe % code.Disks(), Row: 0, Size: size}
		s, err := GenerateScheme(code, e, strategy)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
		stripe++
	}
	decoded := 0
	for _, unavailable := range [][]grid.Coord{column(2), append(column(1), column(3)...)} {
		e := PartialStripeError{Stripe: stripe, Size: 1}
		s, _, err := RegenerateScheme(code, e, column(0), unavailable, strategy)
		if err != nil {
			t.Fatal(err)
		}
		for _, sel := range s.Selected {
			if sel.Decoded {
				decoded++
			}
		}
		out = append(out, s)
		stripe++
	}
	if decoded == 0 {
		t.Fatalf("%v %v: no Decoded selection among the schemes", code, strategy)
	}
	return out
}

// installRequests is a seeded request stream for one scheme: its own
// requests in order, mixed with the same cells on the neighbouring
// stripes, cells no selection fetches, and one cell outside the layout —
// the ids where a dense lookup could read a count the dictionary does
// not hold.
func installRequests(rng *rand.Rand, s *Scheme) []cache.ChunkID {
	own := s.RequestIDs()
	var unfetched []grid.Coord
	for i := 0; i < s.Code.Layout().Cells(); i++ {
		if _, ok := s.Priorities[s.Code.CoordOf(i)]; !ok {
			unfetched = append(unfetched, s.Code.CoordOf(i))
		}
	}
	outside := grid.Coord{Row: 0, Col: s.Code.Disks()}
	out := make([]cache.ChunkID, 0, 2*len(own))
	for len(own) > 0 {
		switch r := rng.Intn(10); {
		case r < 5:
			out = append(out, own[0])
			own = own[1:]
		case r < 8:
			cell := own[rng.Intn(len(own))].Cell
			out = append(out, cache.ChunkID{Stripe: s.Err.Stripe + 1 - 2*rng.Intn(2), Cell: cell})
		case r < 9 && len(unfetched) > 0:
			out = append(out, cache.ChunkID{Stripe: s.Err.Stripe, Cell: unfetched[rng.Intn(len(unfetched))]})
		default:
			out = append(out, cache.ChunkID{Stripe: s.Err.Stripe, Cell: outside})
		}
	}
	return out
}

// TestSetSchemeMatchesSetPriorities is the differential test of FBF's two
// installers: an FBF given each scheme through SetScheme and one given
// SetPriorities(PriorityIDs()) must return the same hit or miss for every
// request and hold the same Stats and queues after it.
func TestSetSchemeMatchesSetPriorities(t *testing.T) {
	for _, name := range codes.Names() {
		for _, p := range []int{5, 7} {
			code := mustCode(t, name, p)
			for _, strategy := range []Strategy{StrategyTypical, StrategyLooped, StrategyGreedy} {
				schemes := installSchemes(t, code, strategy)
				for _, capacity := range []int{3, 8, 32} {
					t.Run(fmt.Sprintf("%v/%v/cap=%d", code, strategy, capacity), func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(p*100 + int(strategy)*10 + capacity)))
						dense, dict := NewFBF(capacity), NewFBF(capacity)
						step := 0
						for _, s := range schemes {
							dense.SetScheme(s)
							dict.SetPriorities(s.PriorityIDs())
							for _, id := range installRequests(rng, s) {
								if a, b := dense.Request(id), dict.Request(id); a != b {
									t.Fatalf("step %d, %v: SetScheme hit=%v, SetPriorities hit=%v", step, id, a, b)
								}
								if a, b := dense.Stats(), dict.Stats(); a != b {
									t.Fatalf("step %d, %v: Stats %+v vs %+v", step, id, a, b)
								}
								for q := 1; q <= 3; q++ {
									if a, b := dense.QueueContents(q), dict.QueueContents(q); !reflect.DeepEqual(a, b) {
										t.Fatalf("step %d, %v: Queue%d %v vs %v", step, id, q, a, b)
									}
								}
								step++
							}
						}
					})
				}
			}
		}
	}
}
