package core

import (
	"reflect"
	"slices"
	"testing"

	"fbf/internal/codes"
	"fbf/internal/grid"
)

// errorsOf returns every valid partial stripe error of code on stripe 3:
// each disk, first row and size.
func errorsOf(code *codes.Code) []PartialStripeError {
	var out []PartialStripeError
	for disk := 0; disk < code.Disks(); disk++ {
		for size := 1; size <= code.MaxPartialSize(); size++ {
			for row := 0; row+size <= code.Rows(); row++ {
				out = append(out, PartialStripeError{Stripe: 3, Disk: disk, Row: row, Size: size})
			}
		}
	}
	return out
}

// sameScheme reports how got, a refilled scheme, differs from want, a
// fresh one: in the plan (Code, Err, Strategy, Selected with every Fetch
// list), the dictionary (Priorities and the share counts SetScheme reads)
// or a Decode left behind.
func sameScheme(t *testing.T, got, want *Scheme) {
	t.Helper()
	switch {
	case got.Code != want.Code || got.Err != want.Err || got.Strategy != want.Strategy:
		t.Fatalf("refilled %v %v %v, fresh %v %v %v", got.Code, got.Err, got.Strategy, want.Code, want.Err, want.Strategy)
	case !reflect.DeepEqual(got.Selected, want.Selected):
		t.Fatalf("%v: refilled Selected %v, fresh %v", want.Err, got.Selected, want.Selected)
	case !reflect.DeepEqual(got.Priorities, want.Priorities):
		t.Fatalf("%v: refilled Priorities %v, fresh %v", want.Err, got.Priorities, want.Priorities)
	case !reflect.DeepEqual(got.shares, want.shares):
		t.Fatalf("%v: refilled shares %v, fresh %v", want.Err, got.shares, want.shares)
	case got.Decode != nil:
		t.Fatalf("%v: refilled scheme keeps a Decode", want.Err)
	}
}

// TestGenerateRefillsAnyScheme refills one scheme with every partial
// stripe error of every code at p ∈ {5, 7} under every strategy. Before
// each refill the scheme holds a longer, different plan: the largest
// error of the code at a larger prime, or (every other time) a repair
// of a whole column of that code with two more columns unavailable,
// which decodes. The refill must equal a fresh GenerateScheme and leave
// the decode it replaced as it was: a Decoded selection's Fetch is that
// decode's Plan entry, so reusing it would write into the Plan.
func TestGenerateRefillsAnyScheme(t *testing.T) {
	column := func(code *codes.Code, col int) []grid.Coord {
		out := make([]grid.Coord, code.Rows())
		for r := range out {
			out[r] = grid.Coord{Row: r, Col: col}
		}
		return out
	}
	var s Scheme
	for _, name := range codes.Names() {
		for _, p := range []int{5, 7} {
			code, bigger := mustCode(t, name, p), mustCode(t, name, p+6) // 11, 13
			biggest := PartialStripeError{Stripe: 9, Disk: 1, Size: bigger.MaxPartialSize()}
			for _, strategy := range []Strategy{StrategyTypical, StrategyLooped, StrategyGreedy} {
				for i, e := range errorsOf(code) {
					if i%2 == 0 {
						if err := s.Generate(bigger, biggest, strategy); err != nil {
							t.Fatal(err)
						}
					} else {
						if _, err := s.Regenerate(bigger, biggest, column(bigger, 0), append(column(bigger, 1), column(bigger, 2)...), strategy); err != nil {
							t.Fatal(err)
						}
						if s.Decode == nil {
							t.Fatalf("%v: the three-column plan does not decode", bigger)
						}
					}
					var prior *codes.DecodeSchedule
					var plan map[grid.Coord][]grid.Coord
					if s.Decode != nil {
						prior, plan = s.Decode, map[grid.Coord][]grid.Coord{}
						for c, fetch := range prior.Plan {
							plan[c] = slices.Clone(fetch)
						}
					}
					if len(s.Selected) <= e.Size {
						t.Fatalf("%v: the plan before %v holds %d selections, want more than %d", code, e, len(s.Selected), e.Size)
					}
					if err := s.Generate(code, e, strategy); err != nil {
						t.Fatal(err)
					}
					want, err := GenerateScheme(code, e, strategy)
					if err != nil {
						t.Fatal(err)
					}
					sameScheme(t, &s, want)
					if prior != nil && !reflect.DeepEqual(prior.Plan, plan) {
						t.Fatalf("refilling with %v rewrote the replaced decode's Plan", e)
					}
				}
			}
		}
	}
}

// TestGenerateRefillAllocs pins what the SOR producer's recycling buys:
// refilling a scheme that held the largest error with smaller ones
// allocates nothing.
func TestGenerateRefillAllocs(t *testing.T) {
	for _, name := range codes.Names() {
		code := mustCode(t, name, 13)
		big := PartialStripeError{Stripe: 1, Disk: 2, Row: 0, Size: code.MaxPartialSize()}
		var s Scheme
		if err := s.Generate(code, big, StrategyLooped); err != nil {
			t.Fatal(err)
		}
		k := 0
		allocs := testing.AllocsPerRun(100, func() {
			k++
			e := PartialStripeError{Stripe: k, Disk: k % code.Disks(), Row: k % 3, Size: 1 + k%(code.MaxPartialSize()-3)}
			if err := s.Generate(code, e, StrategyLooped); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: refilling a scheme allocates %v objects, want 0", name, allocs)
		}
	}
}
