package core

import (
	"math/rand"
	"testing"

	"fbf/internal/chunk"
	"fbf/internal/codes"
	"fbf/internal/grid"
)

func TestStrategyString(t *testing.T) {
	if StrategyTypical.String() != "typical" || StrategyLooped.String() != "looped" || StrategyGreedy.String() != "greedy" {
		t.Error("strategy names wrong")
	}
	if Strategy(9).String() != "Strategy(9)" {
		t.Error("invalid strategy String wrong")
	}
}

func TestParseStrategy(t *testing.T) {
	cases := map[string]Strategy{"typical": StrategyTypical, "looped": StrategyLooped, "fbf": StrategyLooped, "greedy": StrategyGreedy}
	for name, want := range cases {
		got, err := ParseStrategy(name)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseStrategy("nope"); err == nil {
		t.Error("ParseStrategy(nope) should fail")
	}
}

func TestErrorValidate(t *testing.T) {
	code := codes.MustNew("tip", 7) // 6 rows, 8 disks
	valid := PartialStripeError{Stripe: 0, Disk: 0, Row: 0, Size: 5}
	if err := valid.Validate(code); err != nil {
		t.Errorf("valid error rejected: %v", err)
	}
	bad := []PartialStripeError{
		{Stripe: -1, Disk: 0, Row: 0, Size: 1},
		{Stripe: 0, Disk: -1, Row: 0, Size: 1},
		{Stripe: 0, Disk: 8, Row: 0, Size: 1},
		{Stripe: 0, Disk: 0, Row: 0, Size: 0},
		{Stripe: 0, Disk: 0, Row: 0, Size: 7}, // > p-1
		{Stripe: 0, Disk: 0, Row: -1, Size: 1},
		{Stripe: 0, Disk: 0, Row: 4, Size: 3}, // spills past last row
	}
	for _, e := range bad {
		if err := e.Validate(code); err == nil {
			t.Errorf("%v should be invalid", e)
		}
	}
}

func TestErrorLostCells(t *testing.T) {
	e := PartialStripeError{Stripe: 2, Disk: 3, Row: 1, Size: 3}
	cells := e.LostCells()
	want := []grid.Coord{{Row: 1, Col: 3}, {Row: 2, Col: 3}, {Row: 3, Col: 3}}
	if len(cells) != len(want) {
		t.Fatalf("LostCells = %v", cells)
	}
	for i := range want {
		if cells[i] != want[i] {
			t.Errorf("LostCells[%d] = %v, want %v", i, cells[i], want[i])
		}
	}
	if e.String() == "" {
		t.Error("empty String()")
	}
}

func TestTypicalSchemeUsesHorizontalChains(t *testing.T) {
	for _, name := range codes.Names() {
		code := codes.MustNew(name, 7)
		e := PartialStripeError{Disk: 1, Row: 0, Size: 4}
		s, err := GenerateScheme(code, e, StrategyTypical)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, sel := range s.Selected {
			if sel.Chain.Kind != grid.Horizontal {
				t.Errorf("%s: typical scheme chose %v for %v", name, sel.Chain, sel.Lost)
			}
		}
		// Horizontal chains of distinct rows are disjoint: no sharing.
		if s.SharedChunks() != 0 {
			t.Errorf("%s: typical scheme shares %d chunks", name, s.SharedChunks())
		}
	}
}

func TestLoopedSchemeCyclesDirections(t *testing.T) {
	code := codes.MustNew("tip", 7)
	e := PartialStripeError{Disk: 0, Row: 0, Size: 5}
	s, err := GenerateScheme(code, e, StrategyLooped)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Selected) != 5 {
		t.Fatalf("selected %d chains", len(s.Selected))
	}
	wantKinds := []grid.ChainKind{grid.Horizontal, grid.Diagonal, grid.AntiDiagonal, grid.Horizontal, grid.Diagonal}
	for i, sel := range s.Selected {
		if sel.Chain.Kind != wantKinds[i] {
			t.Errorf("chain %d kind = %v, want %v", i, sel.Chain.Kind, wantKinds[i])
		}
	}
}

func TestLoopedSchemeSharesChunks(t *testing.T) {
	// The whole point of FBF scheme generation: crossing directions
	// produce shared chunks for multi-chunk errors.
	for _, name := range codes.Names() {
		code := codes.MustNew(name, 11)
		e := PartialStripeError{Disk: 2, Row: 0, Size: 6}
		s, err := GenerateScheme(code, e, StrategyLooped)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.SharedChunks() == 0 {
			t.Errorf("%s: looped scheme shares no chunks for a 6-chunk error", name)
		}
		if s.UniqueFetches() >= s.TotalRequests() {
			t.Errorf("%s: no request savings (unique %d, total %d)", name, s.UniqueFetches(), s.TotalRequests())
		}
	}
}

func TestPriorityCountsMatchChainMembership(t *testing.T) {
	code := codes.MustNew("star", 7)
	e := PartialStripeError{Disk: 3, Row: 1, Size: 5}
	s, err := GenerateScheme(code, e, StrategyLooped)
	if err != nil {
		t.Fatal(err)
	}
	// Recount from scratch.
	counts := map[grid.Coord]int{}
	for _, sel := range s.Selected {
		for _, m := range sel.Fetch {
			counts[m]++
		}
	}
	if len(counts) != len(s.Priorities) {
		t.Fatalf("priority map has %d entries, recount %d", len(s.Priorities), len(counts))
	}
	for cell, want := range counts {
		if got := s.Priorities[cell]; got != want {
			t.Errorf("priority of %v = %d, want %d", cell, got, want)
		}
	}
}

func TestSchemeRequestsOrdering(t *testing.T) {
	code := codes.MustNew("tip", 5)
	e := PartialStripeError{Stripe: 9, Disk: 0, Row: 0, Size: 3}
	s, err := GenerateScheme(code, e, StrategyLooped)
	if err != nil {
		t.Fatal(err)
	}
	reqs := s.Requests()
	if len(reqs) != s.TotalRequests() {
		t.Fatalf("Requests len %d != TotalRequests %d", len(reqs), s.TotalRequests())
	}
	// Requests must be the concatenation of per-chain fetch lists.
	i := 0
	for _, sel := range s.Selected {
		for _, m := range sel.Fetch {
			if reqs[i] != m {
				t.Fatalf("request %d = %v, want %v", i, reqs[i], m)
			}
			i++
		}
	}
	// The IDs carry the error's stripe.
	ids := s.RequestIDs()
	if len(ids) != len(reqs) {
		t.Fatal("RequestIDs length mismatch")
	}
	for i, id := range ids {
		if id.Stripe != 9 || id.Cell != reqs[i] {
			t.Fatalf("RequestIDs[%d] = %v", i, id)
		}
	}
	prio := s.PriorityIDs()
	if len(prio) != len(s.Priorities) {
		t.Fatal("PriorityIDs length mismatch")
	}
	for id, pr := range prio {
		if id.Stripe != 9 || s.Priorities[id.Cell] != pr {
			t.Fatalf("PriorityIDs[%v] = %d", id, pr)
		}
	}
}

// TestSchemeXORRecovers checks the scheme end to end against real chunk
// data: XOR-ing the fetched chunks of each selected chain must rebuild
// the lost chunk.
func TestSchemeXORRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, name := range codes.Names() {
		for _, p := range []int{5, 7} {
			code := codes.MustNew(name, p)
			stripe := code.NewStripe(64)
			for _, cell := range code.Layout().DataCells() {
				rng.Read(stripe[code.CellIndex(cell)])
			}
			code.Encode(stripe)
			for _, strategy := range []Strategy{StrategyTypical, StrategyLooped, StrategyGreedy} {
				for disk := 0; disk < code.Disks(); disk++ {
					size := min(p-1, code.Rows())
					e := PartialStripeError{Disk: disk, Row: 0, Size: size}
					s, err := GenerateScheme(code, e, strategy)
					if err != nil {
						t.Fatalf("%s p=%d disk=%d %v: %v", name, p, disk, strategy, err)
					}
					for _, sel := range s.Selected {
						acc := chunk.New(64)
						for _, m := range sel.Fetch {
							chunk.XORInto(acc, stripe[code.CellIndex(m)])
						}
						if !acc.Equal(stripe[code.CellIndex(sel.Lost)]) {
							t.Fatalf("%s p=%d %v: chain %v does not rebuild %v", name, p, strategy, sel.Chain, sel.Lost)
						}
					}
				}
			}
		}
	}
}

func TestGreedyReducesFetchesInAggregate(t *testing.T) {
	// Greedy is myopic per lost chunk, so it need not win on every single
	// error instance, but summed over all disks it must read no more
	// unique chunks than the paper's looping heuristic, and looping must
	// in turn beat the typical horizontal-only scheme.
	for _, name := range codes.Names() {
		code := codes.MustNew(name, 11)
		var typTotal, loopTotal, greedyTotal int
		for disk := 0; disk < code.Disks(); disk++ {
			e := PartialStripeError{Disk: disk, Row: 0, Size: 8}
			for _, run := range []struct {
				strategy Strategy
				total    *int
			}{
				{StrategyTypical, &typTotal},
				{StrategyLooped, &loopTotal},
				{StrategyGreedy, &greedyTotal},
			} {
				s, err := GenerateScheme(code, e, run.strategy)
				if err != nil {
					t.Fatal(err)
				}
				*run.total += s.UniqueFetches()
			}
		}
		if greedyTotal > loopTotal {
			t.Errorf("%s: greedy total fetches %d > looped %d", name, greedyTotal, loopTotal)
		}
		if loopTotal >= typTotal {
			t.Errorf("%s: looped total fetches %d >= typical %d", name, loopTotal, typTotal)
		}
	}
}

func TestPriorityGroups(t *testing.T) {
	code := codes.MustNew("tip", 7)
	e := PartialStripeError{Disk: 0, Row: 0, Size: 5}
	s, err := GenerateScheme(code, e, StrategyLooped)
	if err != nil {
		t.Fatal(err)
	}
	groups := s.PriorityGroups()
	total := len(groups[0]) + len(groups[1]) + len(groups[2])
	if total != s.UniqueFetches() {
		t.Errorf("groups hold %d chunks, want %d", total, s.UniqueFetches())
	}
	for gi, group := range groups {
		for _, cell := range group {
			if clampPriority(s.Priorities[cell]) != gi+1 {
				t.Errorf("cell %v in group %d has priority %d", cell, gi+1, s.Priorities[cell])
			}
		}
		// Groups are sorted.
		for i := 1; i < len(group); i++ {
			if group[i].Less(group[i-1]) {
				t.Errorf("group %d unsorted at %d", gi+1, i)
			}
		}
	}
}

func TestGenerateSchemeErrors(t *testing.T) {
	code := codes.MustNew("tip", 5)
	if _, err := GenerateScheme(code, PartialStripeError{Disk: 99, Row: 0, Size: 1}, StrategyLooped); err == nil {
		t.Error("invalid error accepted")
	}
	if _, err := GenerateScheme(code, PartialStripeError{Disk: 0, Row: 0, Size: 1}, Strategy(42)); err == nil {
		t.Error("invalid strategy accepted")
	}
}

func TestClampPriority(t *testing.T) {
	cases := map[int]int{-1: 1, 0: 1, 1: 1, 2: 2, 3: 3, 4: 3, 10: 3}
	for in, want := range cases {
		if got := clampPriority(in); got != want {
			t.Errorf("clampPriority(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestSchemeSingleChunkError(t *testing.T) {
	// A single lost chunk has one chain and no shared chunks regardless
	// of strategy.
	for _, strategy := range []Strategy{StrategyTypical, StrategyLooped, StrategyGreedy} {
		code := codes.MustNew("triplestar", 5)
		s, err := GenerateScheme(code, PartialStripeError{Disk: 0, Row: 2, Size: 1}, strategy)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Selected) != 1 || s.SharedChunks() != 0 {
			t.Errorf("%v: %d chains, %d shared", strategy, len(s.Selected), s.SharedChunks())
		}
	}
}

func TestSchemeEveryDiskEveryRun(t *testing.T) {
	// Scheme generation must succeed for every disk, start row and size
	// in bounds, for every code and both paper strategies.
	for _, name := range codes.Names() {
		code := codes.MustNew(name, 5)
		for disk := 0; disk < code.Disks(); disk++ {
			for row := 0; row < code.Rows(); row++ {
				for size := 1; size <= code.P()-1 && row+size <= code.Rows(); size++ {
					for _, strategy := range []Strategy{StrategyTypical, StrategyLooped} {
						e := PartialStripeError{Disk: disk, Row: row, Size: size}
						if _, err := GenerateScheme(code, e, strategy); err != nil {
							t.Fatalf("%s %v %v: %v", name, e, strategy, err)
						}
					}
				}
			}
		}
	}
}
