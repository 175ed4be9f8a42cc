package rebuild

import (
	stderrors "errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/sim"
)

// TestFaultConfigValidation pins the typed validation of the fault
// fields: each invalid knob yields a *ConfigError naming it.
func TestFaultConfigValidation(t *testing.T) {
	code := codes.MustNew("tip", 5)
	base := func() Config {
		return Config{Code: code, Policy: "lru", Strategy: core.StrategyLooped,
			Workers: 2, CacheChunks: 16, Stripes: 16}
	}
	cases := []struct {
		name   string
		faults FaultConfig
		mutate func(*Config)
		field  string
	}{
		{name: "negative URE rate", faults: FaultConfig{URERate: -0.1}, field: "Faults.URERate"},
		{name: "URE rate of 1", faults: FaultConfig{URERate: 1}, field: "Faults.URERate"},
		{name: "transient rate above 1", faults: FaultConfig{TransientRate: 1.5}, field: "Faults.TransientRate"},
		{name: "retry cap below 1", faults: FaultConfig{RetryMax: -2}, field: "Faults.RetryMax"},
		{
			name:   "failure disk out of range",
			faults: FaultConfig{DiskFailures: []DiskFailure{{Disk: code.Disks(), At: sim.Millisecond}}},
			field:  fmt.Sprintf("Faults.DiskFailures[0].Disk"),
		},
		{
			name:   "failure before error arrival",
			faults: FaultConfig{DiskFailures: []DiskFailure{{Disk: 1, At: 0}}},
			field:  "Faults.DiskFailures[0].At",
		},
		{
			name:   "faults with SkipSpareWrites",
			faults: FaultConfig{URERate: 0.01},
			mutate: func(c *Config) { c.SkipSpareWrites = true },
			field:  "Faults",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			f := tc.faults
			cfg.Faults = &f
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			_, err := Run(cfg, []core.PartialStripeError{{Stripe: 0, Disk: 0, Row: 0, Size: 1}})
			var ce *ConfigError
			if !stderrors.As(err, &ce) {
				t.Fatalf("error %v (%T), want *ConfigError", err, err)
			}
			if ce.Field != tc.field {
				t.Errorf("ConfigError.Field = %q, want %q (%v)", ce.Field, tc.field, ce)
			}
		})
	}
}

// TestDORRejectsFaults pins that DOR mode refuses fault injection, like
// the other SOR-only features.
func TestDORRejectsFaults(t *testing.T) {
	code := codes.MustNew("tip", 5)
	cfg := Config{Code: code, Policy: "lru", Strategy: core.StrategyLooped,
		Workers: 2, CacheChunks: 16, Stripes: 16, Mode: ModeDOR,
		Faults: &FaultConfig{URERate: 0.01}}
	if _, err := Run(cfg, []core.PartialStripeError{{Stripe: 0, Disk: 0, Row: 0, Size: 1}}); err == nil {
		t.Fatal("DOR run with Faults succeeded, want error")
	}
}

// TestArmedZeroFaultsMatchesBaseline pins that merely arming the fault
// machinery (Faults set, but zero rates and no disk failures) leaves
// every shared metric identical to a run without it — the fault path
// must add no simulation events of its own.
func TestArmedZeroFaultsMatchesBaseline(t *testing.T) {
	code := codes.MustNew("tip", 7)
	errors := genErrors(t, code, 24, 128, 9)
	cfg := Config{Code: code, Policy: "fbf", Strategy: core.StrategyLooped,
		Workers: 4, CacheChunks: 64, Stripes: 128}
	base, err := Run(cfg, errors)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &FaultConfig{Seed: 42}
	armed, err := Run(cfg, errors)
	if err != nil {
		t.Fatal(err)
	}
	if armed.Retries+armed.Regenerations+armed.Escalations+armed.RePlans+armed.FailedReads != 0 {
		t.Errorf("zero-rate fault run reports fault activity: %+v", armed)
	}
	if armed.DataLoss || armed.LostChunks != 0 {
		t.Errorf("zero-rate fault run reports data loss: %+v", armed)
	}
	if armed.Makespan != base.Makespan || armed.Cache != base.Cache ||
		armed.DiskReads != base.DiskReads || armed.DiskWrites != base.DiskWrites ||
		armed.TotalRequests != base.TotalRequests || armed.SumResponse != base.SumResponse {
		t.Errorf("armed-but-quiet run diverged from baseline:\n  base  %+v\n  armed %+v", base, armed)
	}
	if armed.VulnerabilityWindow <= 0 || armed.VulnerabilityWindow > armed.Makespan {
		t.Errorf("VulnerabilityWindow %v outside (0, %v]", armed.VulnerabilityWindow, armed.Makespan)
	}
}

// TestTransientRetriesRecover pins the retry ladder: a seeded transient
// rate makes reads time out and be retried with backoff, and recovery
// still completes without loss.
func TestTransientRetriesRecover(t *testing.T) {
	code := codes.MustNew("tip", 5)
	errors := genErrors(t, code, 12, 64, 3)
	noFault := Config{Code: code, Policy: "lru", Strategy: core.StrategyLooped,
		Workers: 2, CacheChunks: 32, Stripes: 64}
	clean, err := Run(noFault, errors)
	if err != nil {
		t.Fatal(err)
	}
	cfg := noFault
	cfg.Faults = &FaultConfig{Seed: 11, TransientRate: 0.2}
	res, err := Run(cfg, errors)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 {
		t.Error("no retries recorded at TransientRate 0.2")
	}
	if res.FailedReads == 0 {
		t.Error("no failed reads recorded")
	}
	if res.DataLoss {
		t.Errorf("transient-only run lost data: %+v", res.Lost)
	}
	if res.Makespan <= clean.Makespan {
		t.Errorf("retries did not extend makespan: %v <= clean %v", res.Makespan, clean.Makespan)
	}
}

// TestUREEscalationRecoversWithinTolerance pins the URE ladder: latent
// sector errors escalate chunks to lost, the scheme is regenerated around
// them (GF(2) decoder fallback included), and — because the code's
// tolerance is not exceeded — nothing is lost. The regenerated schemes'
// bytes are checked where bytes live: verify.SweepEscalations replays
// them on a garbage-damaged stripe (verify.CheckEscalatedRecovery).
func TestUREEscalationRecoversWithinTolerance(t *testing.T) {
	code := codes.MustNew("star", 5)
	errors := genErrors(t, code, 16, 64, 4)
	cfg := Config{Code: code, Policy: "fbf", Strategy: core.StrategyLooped,
		Workers: 2, CacheChunks: 32, Stripes: 64,
		Faults: &FaultConfig{Seed: 7, URERate: 0.02}}
	res, err := Run(cfg, errors)
	if err != nil {
		t.Fatal(err)
	}
	if res.Escalations == 0 {
		t.Fatal("no escalations at URERate 0.02; pick a different seed")
	}
	if res.Regenerations == 0 {
		t.Error("escalations without scheme regenerations")
	}
	if res.DataLoss {
		t.Errorf("URE pattern within tolerance reported data loss: %+v", res.Lost)
	}
	if res.FailedReads < res.Escalations {
		t.Errorf("FailedReads %d < Escalations %d", res.FailedReads, res.Escalations)
	}
}

// TestCascadingFailuresGracefulDataLoss pins the last rung of the
// ladder: with four whole-disk failures early in the rebuild — beyond
// any triple-fault-tolerant code — the run must end gracefully with a
// DataLoss result and per-chunk accounting, never a panic, while the
// retry and re-planning counters show the engine fought for it.
func TestCascadingFailuresGracefulDataLoss(t *testing.T) {
	code := codes.MustNew("tip", 7)
	errors := genErrors(t, code, 20, 128, 6)
	cfg := Config{Code: code, Policy: "fbf", Strategy: core.StrategyLooped,
		Workers: 4, CacheChunks: 64, Stripes: 128, ChunkSize: 32 * 1024,
		Faults: &FaultConfig{
			Seed:          13,
			TransientRate: 0.1,
			DiskFailures: []DiskFailure{
				{Disk: 0, At: 5 * sim.Millisecond},
				{Disk: 1, At: 20 * sim.Millisecond},
				{Disk: 2, At: 40 * sim.Millisecond},
				{Disk: 3, At: 60 * sim.Millisecond},
			},
		}}
	res, err := Run(cfg, errors)
	if err != nil {
		t.Fatal(err)
	}
	if res.RePlans != 4 {
		t.Errorf("RePlans = %d, want 4 (one per disk failure)", res.RePlans)
	}
	if !res.DataLoss || res.LostChunks == 0 {
		t.Fatalf("four concurrent failures did not report data loss: %+v", res)
	}
	if res.LostChunks != len(res.Lost) {
		t.Errorf("LostChunks %d != len(Lost) %d", res.LostChunks, len(res.Lost))
	}
	if res.LostBytes != int64(res.LostChunks)*int64(cfg.ChunkSize) {
		t.Errorf("LostBytes %d != %d chunks * %d B", res.LostBytes, res.LostChunks, cfg.ChunkSize)
	}
	if res.Regenerations == 0 {
		t.Error("no scheme regenerations across four disk failures")
	}
	if res.Retries == 0 {
		t.Error("no transient retries recorded")
	}
	if res.Makespan <= 0 {
		t.Errorf("makespan %v", res.Makespan)
	}
	seen := make(map[string]bool, len(res.Lost))
	for _, id := range res.Lost {
		key := fmt.Sprint(id)
		if seen[key] {
			t.Errorf("chunk %v accounted lost twice", id)
		}
		seen[key] = true
	}
}

// TestCheckpointsSurviveReplan pins rebuild checkpointing: when a disk
// fails mid-rebuild, chunks already rebuilt and parked in surviving
// spare areas are not rebuilt again.
func TestCheckpointsSurviveReplan(t *testing.T) {
	code := codes.MustNew("tip", 5)
	errors := genErrors(t, code, 16, 64, 8)
	cfg := Config{Code: code, Policy: "lru", Strategy: core.StrategyLooped,
		Workers: 2, CacheChunks: 32, Stripes: 64,
		Faults: &FaultConfig{
			Seed:         21,
			DiskFailures: []DiskFailure{{Disk: 2, At: 120 * sim.Millisecond}},
		}}
	res, err := Run(cfg, errors)
	if err != nil {
		t.Fatal(err)
	}
	if res.RePlans != 1 {
		t.Fatalf("RePlans = %d, want 1", res.RePlans)
	}
	if res.Regenerations == 0 {
		t.Fatal("disk failure triggered no regeneration")
	}
	if res.CheckpointedChunks == 0 {
		t.Error("no checkpointed chunks survived the re-plan; rebuilt work was redone")
	}
	if res.DataLoss {
		t.Errorf("single failure within tolerance lost data: %+v", res.Lost)
	}
}

// TestReplanOnceUnderConcurrentRuns is the -race guard for the fault
// path's share-nothing design: many goroutines race whole faulted runs
// over one shared geometry and one shared trace, every run must observe
// its mid-rebuild disk failure exactly once, and all runs must agree
// with the serial result bit for bit.
func TestReplanOnceUnderConcurrentRuns(t *testing.T) {
	code := codes.MustNew("star", 7)
	errors := genErrors(t, code, 24, 256, 12)
	cfg := Config{Code: code, Policy: "fbf", Strategy: core.StrategyLooped,
		Workers: 4, CacheChunks: 128, Stripes: 256,
		Faults: &FaultConfig{
			Seed:          5,
			URERate:       0.005,
			TransientRate: 0.05,
			DiskFailures:  []DiskFailure{{Disk: 1, At: 50 * sim.Millisecond}},
		}}
	want, err := Run(cfg, errors)
	if err != nil {
		t.Fatal(err)
	}
	if want.RePlans != 1 {
		t.Fatalf("serial RePlans = %d, want 1", want.RePlans)
	}

	const runs = 8
	got := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = Run(cfg, errors)
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if got[i].RePlans != 1 {
			t.Errorf("run %d: RePlans = %d, want exactly 1", i, got[i].RePlans)
		}
		w, g := *want, *got[i]
		w.SchemeGenWall, g.SchemeGenWall = 0, 0 // real wall time, not simulated
		if !reflect.DeepEqual(w, g) {
			t.Errorf("run %d diverged from serial:\n  serial     %+v\n  concurrent %+v", i, w, g)
		}
	}
}

// TestFaultedRunsAreDeterministic pins that a faulted run is a pure
// function of its configuration: repeated runs agree on every counter,
// including the fault schedule itself.
func TestFaultedRunsAreDeterministic(t *testing.T) {
	code := codes.MustNew("tip", 7)
	errors := genErrors(t, code, 20, 128, 2)
	cfg := Config{Code: code, Policy: "lru", Strategy: core.StrategyLooped,
		Workers: 4, CacheChunks: 64, Stripes: 128,
		Faults: &FaultConfig{
			Seed:          99,
			URERate:       0.01,
			TransientRate: 0.1,
			DiskFailures:  []DiskFailure{{Disk: 3, At: 30 * sim.Millisecond}},
		}}
	first, err := Run(cfg, errors)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		again, err := Run(cfg, errors)
		if err != nil {
			t.Fatal(err)
		}
		f, a := *first, *again
		f.SchemeGenWall, a.SchemeGenWall = 0, 0
		if !reflect.DeepEqual(f, a) {
			t.Fatalf("faulted run not deterministic:\n  first %+v\n  again %+v", f, a)
		}
	}
}

// FuzzFaultPlan drives small faulted rebuilds with arbitrary seeds,
// rates and failure schedules, asserting the engine's safety envelope:
// no error, no panic and coherent loss accounting. The bytes of the
// regenerated schemes it replays are checked by verify.SweepEscalations
// (verify.CheckEscalatedRecovery), on a garbage-damaged stripe.
func FuzzFaultPlan(f *testing.F) {
	f.Add(int64(1), uint16(100), uint16(100), uint8(0), uint16(10), uint8(4), uint16(30))
	f.Add(int64(7), uint16(0), uint16(400), uint8(2), uint16(1), uint8(2), uint16(2))
	f.Add(int64(42), uint16(900), uint16(0), uint8(7), uint16(500), uint8(1), uint16(60))
	code := codes.MustNew("tip", 5)
	trace := []core.PartialStripeError{
		{Stripe: 0, Disk: 0, Row: 0, Size: 2},
		{Stripe: 1, Disk: 3, Row: 1, Size: 1},
		{Stripe: 2, Disk: 1, Row: 0, Size: 3},
		{Stripe: 3, Disk: 5, Row: 2, Size: 1},
	}
	f.Fuzz(func(t *testing.T, seed int64, ureMilli, transientMilli uint16, disk1 uint8, at1Ms uint16, disk2 uint8, at2Ms uint16) {
		fc := &FaultConfig{
			Seed:          seed,
			URERate:       float64(ureMilli%1000) / 2000,       // [0, 0.5)
			TransientRate: float64(transientMilli%1000) / 2000, // [0, 0.5)
		}
		for _, df := range []DiskFailure{
			{Disk: int(disk1) % code.Disks(), At: sim.Time(at1Ms%1000+1) * sim.Millisecond},
			{Disk: int(disk2) % code.Disks(), At: sim.Time(at2Ms%1000+1) * sim.Millisecond},
		} {
			fc.DiskFailures = append(fc.DiskFailures, df)
		}
		cfg := Config{Code: code, Policy: "fbf", Strategy: core.StrategyLooped,
			Workers: 2, CacheChunks: 16, Stripes: 8, ChunkSize: 4096,
			Faults: fc}
		res, err := Run(cfg, trace)
		if err != nil {
			t.Fatalf("faulted run errored: %v", err)
		}
		if res.DataLoss != (res.LostChunks > 0) {
			t.Fatalf("DataLoss %v inconsistent with LostChunks %d", res.DataLoss, res.LostChunks)
		}
		if res.LostChunks != len(res.Lost) || res.LostBytes != int64(res.LostChunks)*int64(cfg.ChunkSize) {
			t.Fatalf("loss accounting incoherent: %+v", res)
		}
		if res.DataLoss && res.Escalations == 0 && res.RePlans == 0 {
			t.Fatalf("data loss with no escalation or re-plan: %+v", res)
		}
		if res.Cache.Requests() != res.TotalRequests {
			t.Fatalf("cache requests %d != total %d", res.Cache.Requests(), res.TotalRequests)
		}
	})
}
