package verify

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/grid"
)

// fuzzPrimes is the prime menu the fuzzer indexes into: the smallest
// geometry each family supports in its verified regime up to the
// paper's largest evaluated prime.
var fuzzPrimes = []int{5, 7, 11, 13}

// codeCache memoizes code construction across fuzz iterations; building
// a code runs GF(2) elimination and would dominate the fuzz loop.
var codeCache sync.Map // "name/p" -> *codes.Code

func cachedCode(tb testing.TB, name string, p int) *codes.Code {
	key := fmt.Sprintf("%s/%d", name, p)
	if c, ok := codeCache.Load(key); ok {
		return c.(*codes.Code)
	}
	c, err := codes.New(name, p)
	if err != nil {
		tb.Fatalf("codes.New(%s, %d): %v", name, p, err)
	}
	codeCache.Store(key, c)
	return c
}

// FuzzSchemeRecovery fuzzes the full scheme-generation-and-replay
// pipeline: an arbitrary (code, prime, error pattern, strategy, data
// seed) tuple must either be rejected by validation or recover
// byte-identically through both the selected chains and the gf2
// decoder oracle. The checked-in corpus (testdata/fuzz) pins the
// known-tricky geometries so plain `go test` replays them as
// regression cases.
func FuzzSchemeRecovery(f *testing.F) {
	// Smallest prime, first disk, single chunk.
	f.Add(0, 0, 0, 0, 1, 0, int64(1))
	// Maximal error run on each family (size = p-1 = whole column).
	f.Add(1, 0, 2, 0, 4, 1, int64(2))
	// Chain-wrap case: run ending on the last row, diagonal-first.
	f.Add(2, 1, 3, 2, 4, 1, int64(3))
	// Parity-column error on STAR's anti-diagonal disk.
	f.Add(1, 1, 9, 1, 3, 2, int64(4))
	f.Fuzz(func(t *testing.T, codeIdx, pIdx, disk, row, size, strat int, seed int64) {
		names := codes.Names()
		if codeIdx < 0 || codeIdx >= len(names) || pIdx < 0 || pIdx >= len(fuzzPrimes) {
			t.Skip()
		}
		if strat < 0 || strat >= len(Strategies()) {
			t.Skip()
		}
		code := cachedCode(t, names[codeIdx], fuzzPrimes[pIdx])
		e := core.PartialStripeError{Stripe: 0, Disk: disk, Row: row, Size: size}
		if err := e.Validate(code); err != nil {
			t.Skip()
		}
		if _, err := CheckPattern(code, e, nil, nil, Strategies()[strat], 32, seed); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzEscalatedRecovery fuzzes the escalation planner the same way: a
// valid partial-stripe error, plus one escalated cell (esc indexes the
// stripe's cells; a negative one escalates none) and up to three failed
// columns other than the error's disk (a bitmask over disks), must be
// planned so that every rebuilt cell byte-matches and every loss verdict
// agrees with the gf2 decoder oracle. Failed columns push the plan onto
// the decoder fallback, and three of them beside the error onto the
// graceful-loss path.
func FuzzEscalatedRecovery(f *testing.F) {
	// One bad survivor beside a single-chunk error.
	f.Add(0, 0, 0, 0, 1, 7, uint16(0), 1, int64(1))
	// Two dead disks beside a maximal run: the decoder fallback.
	f.Add(1, 0, 2, 0, 4, -1, uint16(0b1010), 0, int64(2))
	// Three dead disks and a bad survivor: past tolerance, cells lost.
	f.Add(2, 1, 3, 1, 3, 20, uint16(0b10011), 2, int64(3))
	f.Fuzz(func(t *testing.T, codeIdx, pIdx, disk, row, size, esc int, failedMask uint16, strat int, seed int64) {
		names := codes.Names()
		if codeIdx < 0 || codeIdx >= len(names) || pIdx < 0 || pIdx >= len(fuzzPrimes) {
			t.Skip()
		}
		if strat < 0 || strat >= len(Strategies()) {
			t.Skip()
		}
		code := cachedCode(t, names[codeIdx], fuzzPrimes[pIdx])
		e := core.PartialStripeError{Stripe: 0, Disk: disk, Row: row, Size: size}
		if err := e.Validate(code); err != nil || esc >= code.Layout().Cells() {
			t.Skip()
		}
		if bits.OnesCount16(failedMask) > 3 || int(failedMask)>>code.Disks() != 0 || failedMask>>disk&1 != 0 {
			t.Skip()
		}
		var escalated []grid.Coord
		if esc >= 0 {
			escalated = append(escalated, code.CoordOf(esc))
		}
		var failedCols []int
		for col := 0; col < code.Disks(); col++ {
			if failedMask>>col&1 != 0 {
				failedCols = append(failedCols, col)
			}
		}
		if _, err := CheckPattern(code, e, escalated, failedCols, Strategies()[strat], 32, seed); err != nil {
			t.Fatal(err)
		}
	})
}
