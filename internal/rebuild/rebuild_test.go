package rebuild

import (
	"testing"

	"fbf/internal/cache"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/disk"
	"fbf/internal/sim"
	"fbf/internal/trace"
)

func genErrors(t testing.TB, code *codes.Code, groups, stripes int, seed int64) []core.PartialStripeError {
	t.Helper()
	errors, err := trace.Generate(code, trace.Config{Groups: groups, Stripes: stripes, Seed: seed, Disk: -1})
	if err != nil {
		t.Fatal(err)
	}
	return errors
}

func TestRunBasicMetrics(t *testing.T) {
	code := codes.MustNew("tip", 7)
	errors := genErrors(t, code, 20, 100, 1)
	res, err := Run(Config{
		Code: code, Policy: "lru", Strategy: core.StrategyLooped,
		Workers: 4, CacheChunks: 64, Stripes: 100,
	}, errors)
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups != 20 {
		t.Errorf("Groups = %d", res.Groups)
	}
	if res.TotalRequests == 0 || res.Cache.Requests() != res.TotalRequests {
		t.Errorf("requests: total=%d cache=%d", res.TotalRequests, res.Cache.Requests())
	}
	// Every miss is a disk read; hits read nothing.
	if res.DiskReads != res.Cache.Misses {
		t.Errorf("DiskReads %d != cache misses %d", res.DiskReads, res.Cache.Misses)
	}
	// One spare write per lost chunk.
	var lost uint64
	for _, e := range errors {
		lost += uint64(e.Size)
	}
	if res.DiskWrites != lost {
		t.Errorf("DiskWrites %d != lost chunks %d", res.DiskWrites, lost)
	}
	if res.Makespan <= 0 || res.AvgResponse() <= 0 {
		t.Errorf("timings: makespan %v avg %v", res.Makespan, res.AvgResponse())
	}
	if res.SchemeGenWall <= 0 || res.AvgSchemeGen() <= 0 {
		t.Error("scheme generation wall time not measured")
	}
	if res.HitRatio() < 0 || res.HitRatio() > 1 {
		t.Errorf("hit ratio %f", res.HitRatio())
	}
}

func TestRunDeterministic(t *testing.T) {
	code := codes.MustNew("star", 5)
	errors := genErrors(t, code, 15, 60, 2)
	cfg := Config{Code: code, Policy: "fbf", Strategy: core.StrategyLooped, Workers: 3, CacheChunks: 30, Stripes: 60}
	a, err := Run(cfg, errors)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, errors)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cache != b.Cache || a.Makespan != b.Makespan || a.DiskReads != b.DiskReads || a.SumResponse != b.SumResponse {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestRunAllPoliciesAllCodes(t *testing.T) {
	for _, name := range codes.Names() {
		code := codes.MustNew(name, 5)
		errors := genErrors(t, code, 8, 40, 3)
		for _, policy := range cache.Names() {
			res, err := Run(Config{
				Code: code, Policy: policy, Strategy: core.StrategyLooped,
				Workers: 2, CacheChunks: 16, Stripes: 40,
			}, errors)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, policy, err)
			}
			if res.Cache.Requests() == 0 {
				t.Errorf("%s/%s: no requests", name, policy)
			}
		}
	}
}

func TestFBFOutperformsClassicPoliciesWhenCacheTight(t *testing.T) {
	// The paper's headline: with constrained cache, FBF beats FIFO, LRU,
	// LFU and ARC on hit ratio, disk reads, response time and
	// reconstruction time.
	code := codes.MustNew("tip", 13)
	errors := genErrors(t, code, 60, 300, 4)
	run := func(policy string) *Result {
		res, err := Run(Config{
			Code: code, Policy: policy, Strategy: core.StrategyLooped,
			Workers: 8, CacheChunks: 64, Stripes: 300, // 8 chunks per worker
		}, errors)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fbf := run("fbf")
	for _, baseline := range []string{"fifo", "lru", "lfu", "arc"} {
		b := run(baseline)
		if fbf.HitRatio() <= b.HitRatio() {
			t.Errorf("FBF hit ratio %.4f <= %s %.4f", fbf.HitRatio(), baseline, b.HitRatio())
		}
		if fbf.DiskReads >= b.DiskReads {
			t.Errorf("FBF disk reads %d >= %s %d", fbf.DiskReads, baseline, b.DiskReads)
		}
		if fbf.AvgResponse() >= b.AvgResponse() {
			t.Errorf("FBF response %v >= %s %v", fbf.AvgResponse(), baseline, b.AvgResponse())
		}
		if fbf.Makespan >= b.Makespan {
			t.Errorf("FBF makespan %v >= %s %v", fbf.Makespan, baseline, b.Makespan)
		}
	}
}

func TestHitRatioPlateausWithLargeCache(t *testing.T) {
	// With cache far larger than any working set, every policy converges
	// to the same hit ratio: shared requests hit, first touches miss.
	code := codes.MustNew("tip", 7)
	errors := genErrors(t, code, 20, 100, 5)
	var want float64
	for i, policy := range []string{"fbf", "lru", "fifo", "lfu", "arc"} {
		res, err := Run(Config{
			Code: code, Policy: policy, Strategy: core.StrategyLooped,
			Workers: 2, CacheChunks: 1 << 16, Stripes: 100,
		}, errors)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res.HitRatio()
			if want <= 0 {
				t.Fatal("plateau hit ratio should be positive")
			}
			continue
		}
		if res.HitRatio() != want {
			t.Errorf("%s plateau %.4f != %.4f", policy, res.HitRatio(), want)
		}
	}
}

func TestTypicalSchemeHasZeroHits(t *testing.T) {
	// Horizontal-only recovery shares nothing; with a cold cache every
	// request misses regardless of policy.
	code := codes.MustNew("triplestar", 7)
	errors := genErrors(t, code, 10, 50, 6)
	res, err := Run(Config{
		Code: code, Policy: "lru", Strategy: core.StrategyTypical,
		Workers: 2, CacheChunks: 1 << 12, Stripes: 50,
	}, errors)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.Hits != 0 {
		t.Errorf("typical scheme produced %d hits", res.Cache.Hits)
	}
	if res.DiskReads != res.TotalRequests {
		t.Errorf("reads %d != requests %d", res.DiskReads, res.TotalRequests)
	}
}

func TestMoreWorkersFinishFaster(t *testing.T) {
	code := codes.MustNew("tip", 11)
	errors := genErrors(t, code, 40, 200, 9)
	run := func(workers int) sim.Time {
		res, err := Run(Config{
			Code: code, Policy: "lru", Strategy: core.StrategyLooped,
			Workers: workers, CacheChunks: 16 * workers, Stripes: 200,
		}, errors)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	if serial, parallel := run(1), run(8); parallel >= serial {
		t.Errorf("8 workers (%v) not faster than 1 (%v)", parallel, serial)
	}
}

func TestPositionalModelRuns(t *testing.T) {
	code := codes.MustNew("tip", 5)
	errors := genErrors(t, code, 6, 30, 10)
	res, err := Run(Config{
		Code: code, Policy: "fbf", Strategy: core.StrategyLooped,
		Workers: 2, CacheChunks: 8, Stripes: 30,
		ModelFor: func(i int) disk.Model {
			return disk.NewPositional(30*int64(codes.MustNew("tip", 5).Rows()), int64(i))
		},
	}, errors)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Error("positional run produced no time")
	}
}

func TestRunValidation(t *testing.T) {
	code := codes.MustNew("tip", 5)
	good := Config{Code: code, Policy: "lru", Workers: 1, CacheChunks: 4, Stripes: 10}
	cases := []func(*Config){
		func(c *Config) { c.Code = nil },
		func(c *Config) { c.Policy = "bogus" },
		func(c *Config) { c.Workers = -1 },
		func(c *Config) { c.CacheChunks = -1 },
		func(c *Config) { c.ChunkSize = -1 },
		func(c *Config) { c.Stripes = -1 },
		func(c *Config) { c.CacheAccess = -1 },
	}
	errs := []core.PartialStripeError{{Stripe: 0, Disk: 0, Row: 0, Size: 1}}
	for i, mutate := range cases {
		cfg := good
		mutate(&cfg)
		if _, err := Run(cfg, errs); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Errors beyond the array must be rejected.
	if _, err := Run(good, []core.PartialStripeError{{Stripe: 99, Disk: 0, Row: 0, Size: 1}}); err == nil {
		t.Error("out-of-array stripe accepted")
	}
	if _, err := Run(good, []core.PartialStripeError{{Stripe: 0, Disk: 99, Row: 0, Size: 1}}); err == nil {
		t.Error("invalid error accepted")
	}
}

func TestZeroCacheStillReconstructs(t *testing.T) {
	code := codes.MustNew("hdd1", 5)
	errors := genErrors(t, code, 4, 20, 11)
	res, err := Run(Config{
		Code: code, Policy: "fbf", Strategy: core.StrategyLooped,
		Workers: 2, CacheChunks: 0, Stripes: 20,
	}, errors)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.Hits != 0 {
		t.Error("zero cache produced hits")
	}
	if res.DiskReads != res.TotalRequests {
		t.Error("zero cache should read every request from disk")
	}
}
