package verify

import (
	"testing"

	"fbf/internal/codes"
	"fbf/internal/core"
)

// sweepPrimes gives every code family two primes, as the conformance
// contract requires: the smallest supported geometry and a larger one
// whose diagonal classes wrap differently.
var sweepPrimes = map[string][]int{
	"star":       {5, 7},
	"triplestar": {5, 7},
	"tip":        {5, 7},
	"hdd1":       {5, 7},
}

// TestSweepAllCodes is the acceptance sweep: all four codes at two
// primes each, all three strategies, every single-disk partial-stripe
// error pattern, byte-verified against the gf2 decoder oracle.
func TestSweepAllCodes(t *testing.T) {
	for _, name := range codes.Names() {
		primes := sweepPrimes[name]
		if len(primes) != 2 {
			t.Fatalf("no sweep primes configured for code %q", name)
		}
		for _, p := range primes {
			t.Run(codes.MustNew(name, p).String(), func(t *testing.T) {
				report, err := SweepStripes(StripeConfig{
					Code: codes.MustNew(name, p),
					Seed: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if report.Patterns == 0 || report.Recovered == 0 || report.Oracle == 0 {
					t.Fatalf("degenerate sweep: %v", report)
				}
				if report.Schemes != report.Patterns*len(Strategies()) {
					t.Errorf("schemes = %d, want patterns (%d) x strategies (%d)",
						report.Schemes, report.Patterns, len(Strategies()))
				}
				// Every scheme rebuilds every lost chunk, and the oracle
				// re-derives each one independently.
				if report.Oracle != report.Recovered {
					t.Errorf("oracle checks (%d) != chain recoveries (%d)", report.Oracle, report.Recovered)
				}
				t.Log(report)
			})
		}
	}
}

// TestSweepSeedVariation re-runs one sweep per family with different
// stripe contents; recovery correctness must not depend on the data.
func TestSweepSeedVariation(t *testing.T) {
	for _, name := range codes.Names() {
		for _, seed := range []int64{2, 99} {
			if _, err := SweepStripes(StripeConfig{Code: codes.MustNew(name, 5), Seed: seed}); err != nil {
				t.Errorf("%s seed %d: %v", name, seed, err)
			}
		}
	}
}

// TestSweepChunkSizes verifies the harness at a chunk size that is not
// a multiple of 8 (exercising the XOR kernel's byte tail) and at the
// paper's 32 KB.
func TestSweepChunkSizes(t *testing.T) {
	for _, size := range []int{13, 32 * 1024} {
		if _, err := SweepStripes(StripeConfig{Code: codes.MustNew("tip", 5), ChunkSize: size, Seed: 3}); err != nil {
			t.Errorf("chunk size %d: %v", size, err)
		}
	}
}

// TestCheckPatternRejectsInvalid covers the harness's own input
// validation paths.
func TestCheckPatternRejectsInvalid(t *testing.T) {
	code := codes.MustNew("tip", 5)
	bad := core.PartialStripeError{Stripe: 0, Disk: code.Disks(), Row: 0, Size: 1}
	if _, err := CheckPattern(code, bad, nil, nil, core.StrategyLooped, 16, 1); err == nil {
		t.Fatal("out-of-range disk accepted")
	}
	if _, err := SweepStripes(StripeConfig{}); err == nil {
		t.Fatal("nil code accepted")
	}
}

// TestCheckPatternDetectsBrokenScheme plants a corrupted scheme
// executor double-check: a chain that excludes a fetched cell must make
// the byte diff fire. We simulate by checking a pattern against a code
// whose chunk contents were generated with a different seed than the
// harness expects — i.e., the harness must not silently pass when
// the underlying XOR identity is broken. Since the public API always
// materializes consistently, we instead assert that checkPattern flags
// a stripe that fails parity verification.
func TestHarnessRejectsCorruptStripe(t *testing.T) {
	code := codes.MustNew("tip", 5)
	s := code.MaterializeStripe(1, 16)
	s[0][0] ^= 0xFF // corrupt one byte: parity no longer holds
	if code.Verify(s) {
		t.Fatal("corruption not visible to Verify")
	}
	e := core.PartialStripeError{Stripe: 0, Disk: 0, Row: 0, Size: 1}
	// The corrupted cell participates in chains; chain recovery of a
	// different cell through a chain containing cell 0 must now diverge
	// from the original bytes.
	if _, _, _, err := checkPattern(code, s, e, nil, nil, core.StrategyTypical, newScratch(code, 16)); err == nil {
		t.Fatal("harness passed a stripe with broken parity")
	}
}
