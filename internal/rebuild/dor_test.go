package rebuild

import (
	"testing"

	"fbf/internal/cache"
	"fbf/internal/codes"
	"fbf/internal/core"
)

func TestModeString(t *testing.T) {
	if ModeSOR.String() != "sor" || ModeDOR.String() != "dor" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("invalid mode name wrong")
	}
}

func TestDORBasicMetrics(t *testing.T) {
	code := codes.MustNew("tip", 7)
	errors := genErrors(t, code, 20, 100, 41)
	res, err := Run(Config{
		Code: code, Policy: "lru", Strategy: core.StrategyLooped,
		Mode: ModeDOR, Workers: 1, CacheChunks: 256, Stripes: 100,
	}, errors)
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups != 20 || res.TotalRequests == 0 {
		t.Fatalf("result %+v", res)
	}
	if res.Cache.Requests() != res.TotalRequests {
		t.Errorf("cache requests %d != total %d", res.Cache.Requests(), res.TotalRequests)
	}
	if res.DiskReads != res.Cache.Misses {
		t.Errorf("reads %d != misses %d", res.DiskReads, res.Cache.Misses)
	}
	var lost uint64
	for _, e := range errors {
		lost += uint64(e.Size)
	}
	if res.DiskWrites != lost {
		t.Errorf("writes %d != lost %d", res.DiskWrites, lost)
	}
	if res.Makespan <= 0 {
		t.Error("no makespan")
	}
	if len(res.PerDisk) != code.Disks() {
		t.Error("per-disk stats missing")
	}
}

func TestDORDeterministic(t *testing.T) {
	code := codes.MustNew("star", 5)
	errors := genErrors(t, code, 12, 60, 42)
	cfg := Config{
		Code: code, Policy: "fbf", Strategy: core.StrategyLooped,
		Mode: ModeDOR, Workers: 1, CacheChunks: 64, Stripes: 60,
	}
	a, err := Run(cfg, errors)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, errors)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cache != b.Cache || a.Makespan != b.Makespan || a.SumResponse != b.SumResponse {
		t.Error("DOR not deterministic")
	}
}

func TestDORSharedCacheProducesHits(t *testing.T) {
	// DOR's single global cache sees every request, so with enough
	// capacity the shared chunks of the looped scheme must hit.
	code := codes.MustNew("tip", 13)
	errors := genErrors(t, code, 30, 200, 43)
	res, err := Run(Config{
		Code: code, Policy: "fbf", Strategy: core.StrategyLooped,
		Mode: ModeDOR, Workers: 1, CacheChunks: 1 << 14, Stripes: 200,
	}, errors)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.Hits == 0 {
		t.Error("DOR produced no hits with ample cache")
	}
}

func TestDORAllPolicies(t *testing.T) {
	code := codes.MustNew("hdd1", 5)
	errors := genErrors(t, code, 8, 40, 44)
	for _, policy := range cache.Names() {
		res, err := Run(Config{
			Code: code, Policy: policy, Strategy: core.StrategyLooped,
			Mode: ModeDOR, Workers: 1, CacheChunks: 32, Stripes: 40,
		}, errors)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if res.TotalRequests == 0 {
			t.Errorf("%s: no requests", policy)
		}
	}
}

func TestDORRejectsUnsupportedFeatures(t *testing.T) {
	code := codes.MustNew("tip", 5)
	errs := []core.PartialStripeError{{Stripe: 0, Disk: 0, Row: 0, Size: 1}}
	base := Config{Code: code, Policy: "lru", Mode: ModeDOR, Workers: 1, CacheChunks: 8, Stripes: 10}
	withApp := base
	withApp.App = &AppWorkload{Requests: 1}
	if _, err := Run(withApp, errs); err == nil {
		t.Error("DOR+App accepted")
	}
}

func TestDORReadCountsMatchSORAtZeroCache(t *testing.T) {
	// With no cache both modes read every request from disk; the request
	// streams are permutations of each other, so totals must agree.
	code := codes.MustNew("triplestar", 7)
	errors := genErrors(t, code, 15, 80, 45)
	sor, err := Run(Config{
		Code: code, Policy: "lru", Strategy: core.StrategyLooped,
		Workers: 4, CacheChunks: 0, Stripes: 80,
	}, errors)
	if err != nil {
		t.Fatal(err)
	}
	dor, err := Run(Config{
		Code: code, Policy: "lru", Strategy: core.StrategyLooped,
		Mode: ModeDOR, Workers: 1, CacheChunks: 0, Stripes: 80,
	}, errors)
	if err != nil {
		t.Fatal(err)
	}
	if sor.DiskReads != dor.DiskReads {
		t.Errorf("SOR reads %d != DOR reads %d", sor.DiskReads, dor.DiskReads)
	}
	if sor.DiskWrites != dor.DiskWrites {
		t.Errorf("SOR writes %d != DOR writes %d", sor.DiskWrites, dor.DiskWrites)
	}
}
