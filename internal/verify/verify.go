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
// The stripe harness (SweepStripes, CheckPattern) encodes seeded-random
// stripe contents with a code, injects an error pattern, executes the
// exact recovery scheme core.GenerateScheme produces — performing the
// chain XORs on real bytes, in replay order, writing each recovered
// chunk back like the engine's spare write — and asserts byte-identical
// recovery. An independent oracle re-derives every lost cell through
// the gf2 erasure decoder (codes.Recover) and the two answers are
// diffed, so a bug would have to hit two disjoint code paths
// identically to escape.
//
// The cache model checker (CheckCache) drives a production policy and a
// deliberately naive slice-based reference model through the same
// randomized request stream and compares hit/miss decisions, eviction
// counts and the full resident set after every step.
package verify

import (
	"bytes"
	"fmt"

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
	Patterns  int // distinct (disk, row, size) error patterns exercised
	Schemes   int // schemes executed (patterns x strategies)
	Recovered int // lost chunks rebuilt through their chain and byte-checked
	Oracle    int // lost cells independently re-derived via the gf2 decoder
}

// String renders the report compactly.
func (r *StripeReport) String() string {
	return fmt.Sprintf("%s(p=%d): %d patterns, %d schemes, %d chunks byte-verified, %d oracle cross-checks",
		r.Code, r.P, r.Patterns, r.Schemes, r.Recovered, r.Oracle)
}

// SweepStripes exercises every single-disk partial-stripe error pattern
// of the code — all disks x all run lengths (1..p-1, clamped to the
// stripe height) x all start rows, which includes the boundary cases:
// size-1 errors, maximal runs, whole-column losses and runs touching the
// first and last row — under every configured strategy, and
// byte-verifies each recovery against the gf2 decoder oracle. It stops
// at the first divergence.
func SweepStripes(cfg StripeConfig) (*StripeReport, error) {
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
	maxSize := code.MaxPartialSize()
	if maxSize > code.Rows() {
		maxSize = code.Rows()
	}
	for disk := 0; disk < code.Disks(); disk++ {
		for size := 1; size <= maxSize; size++ {
			for row := 0; row+size <= code.Rows(); row++ {
				e := core.PartialStripeError{Stripe: 0, Disk: disk, Row: row, Size: size}
				if err := e.Validate(code); err != nil {
					return nil, fmt.Errorf("verify: generated invalid pattern: %w", err)
				}
				report.Patterns++
				for _, strat := range strategies {
					rec, orc, err := checkPattern(code, original, e, strat, sc)
					if err != nil {
						return nil, fmt.Errorf("verify: %v %v strategy=%v: %w", code, e, strat, err)
					}
					report.Schemes++
					report.Recovered += rec
					report.Oracle += orc
				}
			}
		}
	}
	return report, nil
}

// CheckPattern materializes a stripe and byte-verifies the recovery of
// one error pattern under one strategy, chain execution and gf2 oracle
// both. It is the single-pattern entry point used by the fuzz target.
func CheckPattern(code *codes.Code, e core.PartialStripeError, strat core.Strategy, chunkSize int, seed int64) error {
	if chunkSize <= 0 {
		chunkSize = 64
	}
	if err := e.Validate(code); err != nil {
		return err
	}
	original, err := materialize(code, seed, chunkSize)
	if err != nil {
		return err
	}
	if _, _, err := checkPattern(code, original, e, strat, newScratch(code, chunkSize)); err != nil {
		return fmt.Errorf("verify: %v %v strategy=%v: %w", code, e, strat, err)
	}
	return nil
}

// checkPattern runs the full check for one (pattern, strategy) against
// a pre-materialized, pre-verified stripe. It returns the number of
// chain-recovered chunks and oracle-checked cells. It overwrites every
// buffer of sc before reading it.
func checkPattern(code *codes.Code, original []chunk.Chunk, e core.PartialStripeError, strat core.Strategy, sc *scratch) (recovered, oracle int, err error) {
	lost := e.LostCells()
	scheme, err := core.GenerateScheme(code, e, strat)
	if err != nil {
		// Single-disk partial errors must always be schedulable: if the
		// gf2 decoder can solve the pattern, a failed scheme generation
		// is a generator bug, not an unrecoverable pattern.
		if _, oerr := code.RecoveryPlan(lost); oerr == nil {
			return 0, 0, fmt.Errorf("scheme generation failed (%v) but the gf2 decoder recovers the pattern", err)
		}
		return 0, 0, fmt.Errorf("pattern unrecoverable by both scheme generation (%v) and the gf2 decoder", err)
	}
	if err := checkSchemeShape(code, scheme, lost); err != nil {
		return 0, 0, err
	}

	// Chain execution: damage the lost cells, then replay the scheme the
	// way the reconstruction engine does — XOR each selected chain's
	// surviving members, write the result back (the spare write), next
	// chain. Reading from the damaged stripe means a scheme that fetches
	// a lost (or not-yet-recovered) cell corrupts its output and fails
	// the diff below.
	damaged, acc := sc.damaged, sc.acc
	damageStripe(damaged, original, code, lost)
	for _, sel := range scheme.Selected {
		if len(sel.Fetch) == 0 {
			clear(acc)
		} else {
			// Copy-first accumulation: the first member overwrites the
			// dirty buffer, the rest XOR in.
			copy(acc, damaged[code.CellIndex(sel.Fetch[0])])
			for _, m := range sel.Fetch[1:] {
				chunk.XORInto(acc, damaged[code.CellIndex(m)])
			}
		}
		want := original[code.CellIndex(sel.Lost)]
		if !acc.Equal(want) {
			return 0, 0, fmt.Errorf("chain %v rebuilds %v to wrong bytes (first diff at offset %d)",
				sel.Chain, sel.Lost, firstDiff(acc, want))
		}
		copy(damaged[code.CellIndex(sel.Lost)], acc)
		recovered++
	}
	for idx := range damaged {
		if !damaged[idx].Equal(original[idx]) {
			return 0, 0, fmt.Errorf("stripe cell %v differs after full scheme replay", code.CoordOf(idx))
		}
	}

	// Independent oracle: re-derive every lost cell with the generic
	// GF(2) erasure decoder on a second damaged copy and diff both
	// against the original and against the chain-recovered bytes.
	plan, err := code.RecoveryPlan(lost)
	if err != nil {
		return 0, 0, fmt.Errorf("gf2 oracle cannot solve pattern the scheme recovered: %v", err)
	}
	lostSet := make(map[grid.Coord]bool, len(lost))
	for _, c := range lost {
		lostSet[c] = true
	}
	oracled := sc.oracled
	damageStripe(oracled, original, code, lost)
	for _, cell := range lost {
		terms := plan[cell]
		clear(acc)
		for _, t := range terms {
			if lostSet[t] {
				return 0, 0, fmt.Errorf("gf2 plan for %v reads lost cell %v", cell, t)
			}
			chunk.XORInto(acc, oracled[code.CellIndex(t)])
		}
		if !acc.Equal(original[code.CellIndex(cell)]) {
			return 0, 0, fmt.Errorf("gf2 oracle rebuilds %v to wrong bytes (first diff at offset %d)",
				cell, firstDiff(acc, original[code.CellIndex(cell)]))
		}
		if !acc.Equal(damaged[code.CellIndex(cell)]) {
			return 0, 0, fmt.Errorf("chain recovery and gf2 oracle disagree on %v", cell)
		}
		oracle++
	}
	return recovered, oracle, nil
}

// checkSchemeShape asserts the structural invariants of a generated
// scheme: one selected chain per lost cell in order, each chain really
// containing its lost cell and no other, fetch lists equal to the
// chain's survivors, and the priority dictionary equal to the
// chain-sharing counts recomputed from scratch.
func checkSchemeShape(code *codes.Code, s *core.Scheme, lost []grid.Coord) error {
	if len(s.Selected) != len(lost) {
		return fmt.Errorf("scheme selects %d chains for %d lost chunks", len(s.Selected), len(lost))
	}
	lostSet := make(map[grid.Coord]bool, len(lost))
	for _, c := range lost {
		lostSet[c] = true
	}
	recount := make(map[grid.Coord]int)
	for i, sel := range s.Selected {
		if sel.Lost != lost[i] {
			return fmt.Errorf("selected chain %d repairs %v, want %v", i, sel.Lost, lost[i])
		}
		ch, ok := code.Layout().Chain(sel.Chain)
		if !ok {
			return fmt.Errorf("selected chain %v does not exist in the layout", sel.Chain)
		}
		if !ch.Contains(sel.Lost) {
			return fmt.Errorf("chain %v does not contain its lost cell %v", sel.Chain, sel.Lost)
		}
		survivors := ch.Survivors(map[grid.Coord]bool{sel.Lost: true})
		if len(survivors) != len(sel.Fetch) {
			return fmt.Errorf("chain %v fetch list has %d cells, survivors %d", sel.Chain, len(sel.Fetch), len(survivors))
		}
		for j, m := range sel.Fetch {
			if m != survivors[j] {
				return fmt.Errorf("chain %v fetch[%d] = %v, want survivor %v", sel.Chain, j, m, survivors[j])
			}
			if lostSet[m] {
				return fmt.Errorf("chain %v fetches lost cell %v", sel.Chain, m)
			}
			recount[m]++
		}
	}
	if len(recount) != len(s.Priorities) {
		return fmt.Errorf("priority dictionary has %d chunks, fetch lists reference %d", len(s.Priorities), len(recount))
	}
	for cell, n := range recount {
		if s.Priorities[cell] != n {
			return fmt.Errorf("priority of %v is %d, recounted %d", cell, s.Priorities[cell], n)
		}
	}
	if s.UniqueFetches() != len(recount) {
		return fmt.Errorf("UniqueFetches() = %d, want %d", s.UniqueFetches(), len(recount))
	}
	return nil
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
