package verify

import (
	"strings"
	"testing"

	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/grid"
)

// TestSweepEscalations byte-verifies regenerated recovery schemes for
// every code family: URE escalations, cascading column failures within
// tolerance, and beyond-tolerance patterns whose loss verdicts must
// match the gf2 oracle, as must every rebuilt cell.
func TestSweepEscalations(t *testing.T) {
	for _, name := range codes.Names() {
		for _, p := range []int{5, 7} {
			code := codes.MustNew(name, p)
			t.Run(code.String(), func(t *testing.T) {
				report, err := SweepEscalations(StripeConfig{Code: code, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				if report.Schemes == 0 || report.Recovered == 0 {
					t.Fatalf("empty sweep: %v", report)
				}
				// The three-extra-columns cases must exercise the
				// graceful-loss path on every 3DFT code.
				if report.Unsolvable == 0 {
					t.Errorf("no unsolvable cells confirmed: %v", report)
				}
				// Every rebuilt cell, decoded ones included, is
				// re-derived through the gf2 decoder.
				if report.Oracle != report.Recovered {
					t.Errorf("oracle checks (%d) != recoveries (%d)", report.Oracle, report.Recovered)
				}
				if !strings.Contains(report.String(), "byte-verified") {
					t.Errorf("report string: %q", report.String())
				}
			})
		}
	}
}

// TestCheckPatternRejectsBadEscalations covers CheckPattern's guard
// rails for escalated patterns.
func TestCheckPatternRejectsBadEscalations(t *testing.T) {
	code := codes.MustNew("tip", 5)
	bad := core.PartialStripeError{Stripe: 0, Disk: code.Disks(), Row: 0, Size: 1}
	if _, err := CheckPattern(code, bad, nil, nil, core.StrategyLooped, 64, 1); err == nil {
		t.Error("invalid error pattern accepted")
	}
	good := core.PartialStripeError{Stripe: 0, Disk: 0, Row: 0, Size: 1}
	if _, err := CheckPattern(code, good, []grid.Coord{{Row: 0, Col: code.Disks()}}, nil, core.StrategyLooped, 64, 1); err == nil {
		t.Error("out-of-bounds escalated cell accepted")
	}
	if _, err := CheckPattern(code, good, nil, []int{code.Disks()}, core.StrategyLooped, 64, 1); err == nil {
		t.Error("out-of-bounds failed column accepted")
	}
}
