package rebuild

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/grid"
	"fbf/internal/store"
)

// FuzzRepairStripe is the zero test under fuzz, over the read-once pass
// both kinds of plan take. An input picks a code, p ∈ {5, 7}, damage put
// into both stripes of a two-stripe array — by dead % 4, a partial run
// of one disk (0: on disk a, from row b, 1 + c mod the rows left) or
// that many dead disks (1 to 3, from a, b and c) — one surviving chunk
// of stripe 1 that lies (valid CRC, a payload byte flipped on every
// read) and a strategy. The property: RunService either fails with an error naming
// stripe 1 before any write to it, with stripe 0 repaired byte-exact,
// or succeeds and leaves the whole store byte-exact. Every lie the pass
// reads must fail the run, with two documented exceptions:
//
//   - three dead disks leave no spare chain: the code's redundancy is
//     spent, the lie is rebuilt into the lost cells, the run succeeds and
//     the bytes are wrong — the property is not asked of such an input
//     once the lie was read;
//   - a liar on no chain of the plan is never read: the run succeeds,
//     byte-exact.
//
// Damage whose plan needs no decoder and holds a cell on one layout
// chain only (a parity column of STAR or HDD1) rebuilds that cell
// through its only chain, and every check chain the plan picks passes
// through another rebuilt cell: nothing independent tests that chain.
// Such damage is not an input, as in the sweep rows of
// TestLyingSurvivorFailsBeforeFirstWrite (whose STAR row documents the
// limit). The checked-in corpus (testdata/fuzz/FuzzRepairStripe) holds
// a partial run and one to three dead disks for each code.
func FuzzRepairStripe(f *testing.F) {
	codeNames := []string{"star", "triplestar", "tip", "hdd1"}
	strategies := []core.Strategy{core.StrategyTypical, core.StrategyLooped, core.StrategyGreedy}
	f.Fuzz(func(t *testing.T, codeIndex, p, dead, a, b, c, liarCol, liarRow, strategy uint8) {
		const seed, stripe = 31, 1
		m := testManifest(codeNames[int(codeIndex)%len(codeNames)], []int{5, 7}[p%2], 2, 64)
		code := codes.MustNew(m.Code, m.P)
		strat := strategies[int(strategy)%len(strategies)]
		n := int(dead) % 4
		var lost []grid.Coord
		if n == 0 {
			e := core.PartialStripeError{Disk: int(a) % m.Disks, Row: int(b) % m.Rows}
			e.Size = 1 + int(c)%(m.Rows-e.Row)
			lost = e.LostCells()
		} else {
			killed := map[int]bool{}
			for _, x := range []uint8{a, b, c}[:n] {
				disk := int(x) % m.Disks
				for killed[disk] {
					disk = (disk + 1) % m.Disks
				}
				killed[disk] = true
				for row := 0; row < m.Rows; row++ {
					lost = append(lost, grid.Coord{Row: row, Col: disk})
				}
			}
		}
		slices.SortFunc(lost, func(x, y grid.Coord) int { return cmp.Or(cmp.Compare(x.Row, y.Row), cmp.Compare(x.Col, y.Col)) })
		if singleChainOnly(t, code, lost, strat) {
			t.Skip("a cell rebuilt through its only chain: nothing independent checks that chain")
		}
		mem := initMem(t, m, seed)
		for s := 0; s < m.Stripes; s++ {
			loseCells(t, mem, s, lost)
		}
		l := &liar{Backend: mem, wrote: map[store.Addr]bool{},
			addr: AddrOf(stripe, grid.Coord{Row: int(liarRow) % m.Rows, Col: int(liarCol) % m.Disks})}
		res, err := RunService(ServiceConfig{Backend: l, Manifest: m, Strategy: strat})
		damage := fmt.Sprintf("%s p=%d, lost %v, %v lying (read %d times)", m.Code, m.P, lost, l.addr, l.lies)
		switch {
		case err != nil:
			if !strings.Contains(err.Error(), fmt.Sprintf("stripe %d:", stripe)) {
				t.Fatalf("%s: err = %v, want one naming stripe %d", damage, err, stripe)
			}
			if l.lies == 0 {
				t.Fatalf("%s: the run failed without reading the lie: %v", damage, err)
			}
			if w := l.writesTo(stripe); w != 0 {
				t.Fatalf("%s: %d chunks of stripe %d written before it failed", damage, w, stripe)
			}
			unwritten := make([]store.Addr, len(lost))
			for i, cell := range lost {
				unwritten[i] = AddrOf(stripe, cell)
			}
			if a := firstWrongChunk(t, mem, m, seed, unwritten...); a != nil {
				t.Fatalf("%s: stripe %d failed and chunk %v is wrong", damage, stripe, *a)
			}
		case n == 3 && l.lies > 0:
			// The first exception: no spare chain.
			if res.ChunksRebuilt != len(lost)*m.Stripes {
				t.Fatalf("%s: rebuilt %d chunks, want %d", damage, res.ChunksRebuilt, len(lost)*m.Stripes)
			}
		case l.lies > 0:
			t.Fatalf("%s: the lie was read and the run succeeded", damage)
		default:
			// The second exception, or a liar among the lost cells.
			if a := firstWrongChunk(t, mem, m, seed); a != nil {
				t.Fatalf("%s: the run succeeded and chunk %v is wrong", damage, *a)
			}
		}
	})
}

// singleChainOnly reports damage the chain-major check cannot cover: a
// plan with no decoder selection that rebuilds a cell on one layout chain.
func singleChainOnly(t *testing.T, code *codes.Code, lost []grid.Coord, strategy core.Strategy) bool {
	t.Helper()
	e := core.PartialStripeError{Disk: lost[0].Col, Row: lost[0].Row, Size: len(lost)}
	scheme, _, err := core.RegenerateScheme(code, e, lost, nil, strategy)
	if err != nil {
		t.Fatal(err)
	}
	single := false
	for _, sel := range scheme.Selected {
		if sel.Decoded {
			return false
		}
		single = single || len(code.Layout().ChainsThrough(sel.Lost)) < 2
	}
	return single
}
