// Package verify is the data-plane conformance harness for the
// simulator: it pushes real bytes through every failure-and-repair path
// the simulator otherwise only counts.
//
// The simulator's figures rest on two correctness claims that I/O
// accounting alone cannot establish:
//
//  1. Recovery schemes are sound — for every partial stripe error the
//     chain selected for each lost chunk really reconstructs that
//     chunk's bytes, for every code, strategy and error geometry.
//  2. Cache policies faithfully implement their published replacement
//     rules — a subtle eviction bug would silently skew every hit-ratio
//     curve.
//
// The stripe harness (SweepStripes, SweepEscalations, CheckPattern)
// encodes seeded-random stripe contents with a code, injects an error
// pattern, executes the exact recovery scheme core.RegenerateScheme
// produces — performing the selections' XORs on real bytes, in replay
// order, writing each recovered chunk back like the engine's spare
// write — and asserts byte-identical recovery. An independent oracle
// re-derives every rebuilt cell through the gf2 erasure decoder
// (codes.PartialRecoveryPlan) and the two answers are diffed, so a bug
// would have to hit two disjoint code paths identically to escape.
//
// The cache model checker (CheckCache) drives a production policy and a
// deliberately naive slice-based reference model through the same
// randomized request stream and compares hit/miss decisions, eviction
// counts and the full resident set after every step.
package verify

import (
	"bytes"
	"fmt"
	"maps"
	"slices"

	"fbf/internal/chunk"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/grid"
)

// garbageByte overwrites lost chunks before recovery so a scheme that
// accidentally reads a "lost" cell sees garbage rather than the
// original bytes and the corruption is caught by the final diff.
const garbageByte = 0xDB

// Strategies lists every chain-selection strategy the harness sweeps.
func Strategies() []core.Strategy {
	return []core.Strategy{core.StrategyTypical, core.StrategyLooped, core.StrategyGreedy}
}

// StripeConfig parameterizes one code's error-pattern sweep.
type StripeConfig struct {
	Code       *codes.Code
	Strategies []core.Strategy // default: all three
	ChunkSize  int             // bytes per chunk (default 64; byte-level fidelity does not need 32 KB)
	Seed       int64           // stripe-content seed
}

// StripeReport summarizes one sweep.
type StripeReport struct {
	Code      string
	P         int
	Patterns  int // error patterns exercised
	Schemes   int // schemes executed (patterns x strategies)
	Recovered int // repair cells rebuilt through their selections and byte-checked
	Oracle    int // rebuilt cells independently re-derived via the gf2 decoder
	// Unsolvable counts repair cells the scheme reports lost, each
	// confirmed unsolvable by the gf2 decoder.
	Unsolvable int
}

// String renders the report compactly.
func (r *StripeReport) String() string {
	return fmt.Sprintf("%s(p=%d): %d patterns, %d schemes, %d chunks byte-verified, %d oracle cross-checks",
		r.Code, r.P, r.Patterns, r.Schemes, r.Recovered, r.Oracle)
}

// checkFunc runs checkPattern on one pattern under every strategy of a sweep.
type checkFunc func(e core.PartialStripeError, escalated []grid.Coord, failedCols []int) error

// sweep materializes cfg's stripe once and hands patterns a check that
// runs checkPattern on it under every configured strategy, tallying the
// report. It stops at the first divergence.
func sweep(cfg StripeConfig, patterns func(code *codes.Code, check checkFunc) error) (*StripeReport, error) {
	code := cfg.Code
	if code == nil {
		return nil, fmt.Errorf("verify: nil code")
	}
	strategies := cfg.Strategies
	if len(strategies) == 0 {
		strategies = Strategies()
	}
	chunkSize := cfg.ChunkSize
	if chunkSize <= 0 {
		chunkSize = 64
	}
	original, err := materialize(code, cfg.Seed, chunkSize)
	if err != nil {
		return nil, err
	}
	sc := newScratch(code, chunkSize)
	report := &StripeReport{Code: code.Name(), P: code.P()}
	err = patterns(code, func(e core.PartialStripeError, escalated []grid.Coord, failedCols []int) error {
		report.Patterns++
		for _, strat := range strategies {
			rec, orc, uns, err := checkPattern(code, original, e, escalated, failedCols, strat, sc)
			if err != nil {
				return fmt.Errorf("verify: %v %v escalated=%v failedCols=%v strategy=%v: %w", code, e, escalated, failedCols, strat, err)
			}
			report.Schemes++
			report.Recovered += rec
			report.Oracle += orc
			report.Unsolvable += uns
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return report, nil
}

// SweepStripes exercises every single-disk partial-stripe error pattern
// of the code — all disks x all run lengths (1..p-1, clamped to the
// stripe height) x all start rows, which includes the boundary cases:
// size-1 errors, maximal runs, whole-column losses and runs touching the
// first and last row — under every configured strategy, and
// byte-verifies each recovery against the gf2 decoder oracle. It stops
// at the first divergence.
func SweepStripes(cfg StripeConfig) (*StripeReport, error) {
	return sweep(cfg, func(code *codes.Code, check checkFunc) error {
		for disk := 0; disk < code.Disks(); disk++ {
			for size := 1; size <= min(code.MaxPartialSize(), code.Rows()); size++ {
				for row := 0; row+size <= code.Rows(); row++ {
					e := core.PartialStripeError{Stripe: 0, Disk: disk, Row: row, Size: size}
					if err := e.Validate(code); err != nil {
						return fmt.Errorf("verify: generated invalid pattern: %w", err)
					}
					if err := check(e, nil, nil); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
}

// CheckPattern materializes a stripe and byte-verifies the scheme of one
// pattern under one strategy, as checkPattern does in a sweep. It is the
// single-pattern entry point the fuzz targets use.
func CheckPattern(code *codes.Code, e core.PartialStripeError, escalated []grid.Coord, failedCols []int, strat core.Strategy, chunkSize int, seed int64) (*StripeReport, error) {
	if err := e.Validate(code); err != nil {
		return nil, err
	}
	cfg := StripeConfig{Code: code, Strategies: []core.Strategy{strat}, ChunkSize: chunkSize, Seed: seed}
	return sweep(cfg, func(_ *codes.Code, check checkFunc) error { return check(e, escalated, failedCols) })
}

// checkPattern byte-verifies the scheme core.RegenerateScheme plans for
// one pattern — the error's cells plus the escalated ones to repair,
// every other cell of the failed columns unreadable — against a
// pre-materialized, pre-verified stripe. It returns the number of cells
// rebuilt, oracle-checked and confirmed lost.
// A plain error (nothing escalated, no failed column) is the case
// core.GenerateScheme plans; the rest is the planning step
// rebuild.RunService's escalation performs when a survivor turns out
// unreadable or corrupt, or whole disks are gone besides.
//
// The scheme's shape is checked first: every repair cell is planned
// exactly once, rebuilt or reported lost; chain selections come first,
// in repair order, then the decoded ones; a plain error plans only single
// chains and loses no cell; each chain selection fetches its chain's
// survivors; no selection fetches an erased cell; and the priorities are
// a recount of the fetch lists. The scheme is then replayed on a copy
// whose erased cells hold garbage, each rebuilt cell written back, so a
// selection reading an unrecovered or unreadable cell fails the diff.
// Last, an independent oracle — the gf2 decoder's plan on a second
// damaged copy — re-derives every rebuilt cell and must agree that each
// lost one is unsolvable: the planner must never declare data loss the
// decoder could have prevented, nor claim recovery it cannot back with
// bytes. It overwrites every buffer of sc before reading it.
func checkPattern(code *codes.Code, original []chunk.Chunk, e core.PartialStripeError, escalated []grid.Coord, failedCols []int, strat core.Strategy, sc *scratch) (recovered, oracle, unsolvable int, err error) {
	erased := make(map[grid.Coord]bool)
	var repair, all []grid.Coord // all: repair, then the unavailable cells
	for _, c := range append(e.LostCells(), escalated...) {
		if !erased[c] {
			erased[c] = true
			repair = append(repair, c)
		}
	}
	all = repair
	for _, col := range failedCols {
		for row := 0; row < code.Rows(); row++ {
			if c := (grid.Coord{Row: row, Col: col}); !erased[c] {
				erased[c] = true
				all = append(all, c)
			}
		}
	}
	scheme, lost, err := core.RegenerateScheme(code, e, repair, all[len(repair):], strat)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("scheme generation failed: %w", err)
	}

	plain := len(escalated)+len(failedCols) == 0
	order := make(map[grid.Coord]int, len(repair)) // repair index + 1
	for i, c := range repair {
		order[c] = i + 1
	}
	seen := make(map[grid.Coord]int, len(repair))
	for _, c := range lost {
		seen[c]++
	}
	recount := make(map[grid.Coord]int)
	last, decoded := 0, false
	for _, sel := range scheme.Selected {
		seen[sel.Lost]++
		switch {
		case order[sel.Lost] == 0:
			return 0, 0, 0, fmt.Errorf("scheme rebuilds %v, which is no repair cell", sel.Lost)
		case sel.Decoded && plain:
			return 0, 0, 0, fmt.Errorf("plain error decodes %v instead of using a single chain", sel.Lost)
		case !sel.Decoded && decoded:
			return 0, 0, 0, fmt.Errorf("chain selection for %v follows a decoded one", sel.Lost)
		case sel.Decoded && !decoded:
			decoded, last = true, 0
		case order[sel.Lost] <= last:
			return 0, 0, 0, fmt.Errorf("selection for %v is out of repair order", sel.Lost)
		}
		last = order[sel.Lost]
		if !sel.Decoded {
			ch, ok := code.Layout().Chain(sel.Chain)
			if !ok || !ch.Contains(sel.Lost) {
				return 0, 0, 0, fmt.Errorf("selected chain %v does not exist or does not hold %v", sel.Chain, sel.Lost)
			}
			if want := ch.Survivors(map[grid.Coord]bool{sel.Lost: true}); !slices.Equal(sel.Fetch, want) {
				return 0, 0, 0, fmt.Errorf("chain %v fetches %v, want its survivors %v", sel.Chain, sel.Fetch, want)
			}
		}
		for _, m := range sel.Fetch {
			if erased[m] {
				return 0, 0, 0, fmt.Errorf("selection for %v fetches erased cell %v", sel.Lost, m)
			}
			recount[m]++
		}
	}
	for _, c := range repair {
		if seen[c] != 1 {
			return 0, 0, 0, fmt.Errorf("repair cell %v planned %d times (want exactly once across selections and loss list)", c, seen[c])
		}
	}
	if len(seen) != len(repair) {
		return 0, 0, 0, fmt.Errorf("scheme plans %d cells for %d repair cells", len(seen), len(repair))
	}
	if plain && len(lost) > 0 {
		return 0, 0, 0, fmt.Errorf("plain error loses %v", lost)
	}
	if !maps.Equal(recount, scheme.Priorities) {
		return 0, 0, 0, fmt.Errorf("priority dictionary %v is not the fetch lists' recount %v", scheme.Priorities, recount)
	}

	// Replay, the way the reconstruction engine does: XOR each
	// selection's fetch list, write the result back (the spare write),
	// next selection.
	damaged, acc := sc.damaged, sc.acc
	damageStripe(damaged, original, code, all)
	for _, sel := range scheme.Selected {
		clear(acc)
		for _, m := range sel.Fetch {
			chunk.XORInto(acc, damaged[code.CellIndex(m)])
		}
		if want := original[code.CellIndex(sel.Lost)]; !acc.Equal(want) {
			return 0, 0, 0, fmt.Errorf("selection for %v (chain %v, decoded=%v) yields wrong bytes (first diff at offset %d)",
				sel.Lost, sel.Chain, sel.Decoded, firstDiff(acc, want))
		}
		copy(damaged[code.CellIndex(sel.Lost)], acc)
		recovered++
	}

	// The oracle, on the whole erased set.
	plan, _, err := code.PartialRecoveryPlan(all)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("gf2 oracle rejected the erasure pattern: %w", err)
	}
	oracled := sc.oracled
	damageStripe(oracled, original, code, all)
	for _, sel := range scheme.Selected {
		terms, solved := plan[sel.Lost]
		if !solved {
			return 0, 0, 0, fmt.Errorf("cell %v claimed recovered but the gf2 oracle cannot solve it", sel.Lost)
		}
		clear(acc)
		for _, t := range terms {
			if erased[t] {
				return 0, 0, 0, fmt.Errorf("gf2 plan for %v reads erased cell %v", sel.Lost, t)
			}
			chunk.XORInto(acc, oracled[code.CellIndex(t)])
		}
		if want := original[code.CellIndex(sel.Lost)]; !acc.Equal(want) {
			return 0, 0, 0, fmt.Errorf("gf2 oracle rebuilds %v to wrong bytes (first diff at offset %d)", sel.Lost, firstDiff(acc, want))
		}
		if !acc.Equal(damaged[code.CellIndex(sel.Lost)]) {
			return 0, 0, 0, fmt.Errorf("scheme and gf2 oracle disagree on %v", sel.Lost)
		}
		oracle++
	}
	for _, c := range lost {
		if _, solved := plan[c]; solved {
			return 0, 0, 0, fmt.Errorf("cell %v reported lost but the gf2 oracle solves it", c)
		}
		unsolvable++
	}
	return recovered, oracle, unsolvable, nil
}

// materialize returns the code's seeded stripe, checked against its
// parity.
func materialize(code *codes.Code, seed int64, chunkSize int) ([]chunk.Chunk, error) {
	original := code.MaterializeStripe(seed, chunkSize)
	if !code.Verify(original) {
		return nil, fmt.Errorf("verify: %v: materialized stripe fails parity verification", code)
	}
	return original, nil
}

// scratch is the buffers one check overwrites: a stripe copy for the
// chain replay, one for the oracle, and an XOR accumulator. A sweep
// makes one and hands it to every check.
type scratch struct {
	damaged, oracled []chunk.Chunk
	acc              chunk.Chunk
}

func newScratch(code *codes.Code, chunkSize int) *scratch {
	return &scratch{damaged: code.NewStripe(chunkSize), oracled: code.NewStripe(chunkSize), acc: chunk.New(chunkSize)}
}

// damageStripe copies original into dst and overwrites the lost cells
// with garbage.
func damageStripe(dst, original []chunk.Chunk, code *codes.Code, lost []grid.Coord) {
	for i, c := range original {
		copy(dst[i], c)
	}
	for _, cell := range lost {
		c := dst[code.CellIndex(cell)]
		for i := range c {
			c[i] = garbageByte
		}
	}
}

// firstDiff returns the first differing byte offset of two equal-length
// buffers, or -1.
func firstDiff(a, b chunk.Chunk) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
