package verify

import (
	"fmt"

	"fbf/internal/chunk"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/grid"
)

// EscalationReport summarizes one escalated-pattern conformance sweep.
type EscalationReport struct {
	Code     string
	P        int
	Patterns int // escalated/cascading erasure patterns exercised
	Schemes  int // regenerated schemes executed
	// Recovered counts repair cells rebuilt through regenerated chains
	// (decoder-fallback chains included) and byte-checked; Unsolvable
	// counts repair cells correctly reported lost, cross-checked against
	// the gf2 oracle.
	Recovered  int
	Unsolvable int
}

// String renders the report compactly.
func (r *EscalationReport) String() string {
	return fmt.Sprintf("%s(p=%d): %d patterns, %d regenerated schemes, %d chunks byte-verified, %d unsolvable cells oracle-confirmed",
		r.Code, r.P, r.Patterns, r.Schemes, r.Recovered, r.Unsolvable)
}

// CheckEscalatedRecovery byte-verifies one regenerated recovery scheme —
// the planning step rebuild.RunService's escalation performs when a
// surviving chunk turns out unreadable or corrupt (escalated) — and the
// same planner with whole columns gone besides (failedCols). The repair
// set is the group's cells plus the escalations, and every other cell on
// a failed column is unavailable (readable from nowhere) without being
// a repair target.
//
// Three properties are checked: each repair cell is either rebuilt or
// reported lost (exactly once), rebuilt cells byte-match the original
// stripe contents after replaying the scheme on a damaged copy, and
// cells reported lost are confirmed unsolvable by the independent gf2
// oracle — the planner must never declare data loss the decoder could
// have prevented, nor claim recovery it cannot back with bytes.
func CheckEscalatedRecovery(code *codes.Code, e core.PartialStripeError, escalated []grid.Coord, failedCols []int, strat core.Strategy, chunkSize int, seed int64) (recovered, unsolvable int, err error) {
	if chunkSize <= 0 {
		chunkSize = 64
	}
	if err := e.Validate(code); err != nil {
		return 0, 0, err
	}
	original := code.MaterializeStripe(seed, chunkSize)
	if !code.Verify(original) {
		return 0, 0, fmt.Errorf("verify: %v: materialized stripe fails parity verification", code)
	}

	// Build the repair and unavailable sets.
	repairSet := make(map[grid.Coord]bool)
	var repair []grid.Coord
	for _, c := range append(e.LostCells(), escalated...) {
		if !repairSet[c] {
			repairSet[c] = true
			repair = append(repair, c)
		}
	}
	var unavailable []grid.Coord
	for _, col := range failedCols {
		for row := 0; row < code.Rows(); row++ {
			c := grid.Coord{Row: row, Col: col}
			if !repairSet[c] {
				unavailable = append(unavailable, c)
			}
		}
	}

	scheme, lost, err := core.RegenerateScheme(code, e, repair, unavailable, strat)
	if err != nil {
		return 0, 0, fmt.Errorf("verify: regeneration failed for %v escalated=%v failedCols=%v: %w", e, escalated, failedCols, err)
	}

	// Accounting: every repair cell rebuilt or lost, exactly once.
	seen := make(map[grid.Coord]int, len(repair))
	for _, sel := range scheme.Selected {
		seen[sel.Lost]++
	}
	for _, c := range lost {
		seen[c]++
	}
	for _, c := range repair {
		if seen[c] != 1 {
			return 0, 0, fmt.Errorf("verify: repair cell %v planned %d times (want exactly once across chains and loss list)", c, seen[c])
		}
	}
	if len(seen) != len(repair) {
		return 0, 0, fmt.Errorf("verify: scheme plans %d cells for %d repair targets", len(seen), len(repair))
	}

	// Replay the scheme on a damaged stripe: repair and unavailable
	// cells hold garbage, chains execute in order writing results back,
	// so a chain that reads an unrecovered or unavailable cell corrupts
	// its output and fails the diff.
	damaged := damageStripe(original, code, append(append([]grid.Coord{}, repair...), unavailable...), nil)
	for _, sel := range scheme.Selected {
		acc := chunk.New(chunkSize)
		for _, m := range sel.Fetch {
			chunk.XORInto(acc, damaged[code.CellIndex(m)])
		}
		want := original[code.CellIndex(sel.Lost)]
		if !acc.Equal(want) {
			kind := "chain"
			if sel.Decoded {
				kind = "decoded"
			}
			return 0, 0, fmt.Errorf("verify: %s recovery of %v yields wrong bytes (first diff at offset %d)",
				kind, sel.Lost, firstDiff(acc, want))
		}
		copy(damaged[code.CellIndex(sel.Lost)], acc)
		recovered++
	}

	// Oracle cross-check of the loss verdicts: the gf2 decoder, given
	// the full erasure pattern, must agree that each lost cell is
	// unsolvable — and that no solvable repair cell was abandoned.
	allLost := append(append([]grid.Coord{}, repair...), unavailable...)
	_, unsolved, err := code.PartialRecoveryPlan(allLost)
	if err != nil {
		return 0, 0, fmt.Errorf("verify: oracle rejected the erasure pattern: %w", err)
	}
	unsolvedSet := make(map[grid.Coord]bool, len(unsolved))
	for _, c := range unsolved {
		unsolvedSet[c] = true
	}
	lostSet := make(map[grid.Coord]bool, len(lost))
	for _, c := range lost {
		lostSet[c] = true
		if !unsolvedSet[c] {
			return 0, 0, fmt.Errorf("verify: cell %v reported lost but the gf2 oracle solves it", c)
		}
		unsolvable++
	}
	for _, c := range repair {
		if unsolvedSet[c] && !lostSet[c] {
			return 0, 0, fmt.Errorf("verify: cell %v claimed recovered but the gf2 oracle cannot solve it", c)
		}
	}
	return recovered, unsolvable, nil
}

// SweepEscalations exercises regenerated recovery schemes across the
// escalation scenarios rebuild.RunService's escalation plans: for every
// disk's maximal partial-stripe error it escalates each surviving cell
// in turn (one bad survivor), fails each other column (a second disk
// failure), fails two (a third), and fails three (beyond any 3DFT
// code's tolerance — the graceful-loss path), byte-verifying every
// regenerated scheme against the gf2 oracle. It stops at the first
// divergence.
func SweepEscalations(cfg StripeConfig) (*EscalationReport, error) {
	code := cfg.Code
	if code == nil {
		return nil, fmt.Errorf("verify: nil code")
	}
	strategies := cfg.Strategies
	if len(strategies) == 0 {
		strategies = Strategies()
	}
	report := &EscalationReport{Code: code.Name(), P: code.P()}
	size := code.MaxPartialSize()
	if size > code.Rows() {
		size = code.Rows()
	}
	check := func(e core.PartialStripeError, escalated []grid.Coord, failedCols []int) error {
		report.Patterns++
		for _, strat := range strategies {
			rec, uns, err := CheckEscalatedRecovery(code, e, escalated, failedCols, strat, cfg.ChunkSize, cfg.Seed)
			if err != nil {
				return fmt.Errorf("%v escalated=%v failedCols=%v strategy=%v: %w", e, escalated, failedCols, strat, err)
			}
			report.Schemes++
			report.Recovered += rec
			report.Unsolvable += uns
		}
		return nil
	}
	for d := 0; d < code.Disks(); d++ {
		e := core.PartialStripeError{Stripe: 0, Disk: d, Row: 0, Size: size}
		// Every surviving cell escalated on its own.
		for col := 0; col < code.Disks(); col++ {
			if col == d {
				continue
			}
			for row := 0; row < code.Rows(); row++ {
				if err := check(e, []grid.Coord{{Row: row, Col: col}}, nil); err != nil {
					return nil, fmt.Errorf("verify: %w", err)
				}
			}
		}
		// Cascading whole-disk failures: one, two and (beyond 3DFT
		// tolerance, exercising the graceful-loss verdicts) three more
		// columns.
		others := make([]int, 0, code.Disks()-1)
		for col := 0; col < code.Disks(); col++ {
			if col != d {
				others = append(others, col)
			}
		}
		for i := 0; i < len(others); i++ {
			if err := check(e, nil, others[i:i+1]); err != nil {
				return nil, fmt.Errorf("verify: %w", err)
			}
		}
		for i := 0; i+1 < len(others); i += 2 {
			if err := check(e, nil, others[i:i+2]); err != nil {
				return nil, fmt.Errorf("verify: %w", err)
			}
		}
		for i := 0; i+2 < len(others); i += 3 {
			if err := check(e, nil, others[i:i+3]); err != nil {
				return nil, fmt.Errorf("verify: %w", err)
			}
		}
		// An unreadable survivor on top of a dead disk.
		esc := grid.Coord{Row: code.Rows() / 2, Col: others[len(others)-1]}
		if err := check(e, []grid.Coord{esc}, others[:1]); err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
	}
	return report, nil
}
