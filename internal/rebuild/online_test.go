package rebuild

import (
	stderrors "errors"
	"testing"

	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/sim"
)

func TestOnlineRecoveryAppMetrics(t *testing.T) {
	code := codes.MustNew("tip", 7)
	errors := genErrors(t, code, 20, 100, 21)
	res, err := Run(Config{
		Code: code, Policy: "fbf", Strategy: core.StrategyLooped,
		Workers: 4, CacheChunks: 64, Stripes: 100,
		App: &AppWorkload{Requests: 200, Interarrival: sim.Millisecond, Seed: 1},
	}, errors)
	if err != nil {
		t.Fatal(err)
	}
	if res.AppRequests != 200 {
		t.Errorf("AppRequests = %d", res.AppRequests)
	}
	if res.AppAvgResponse() <= 0 {
		t.Error("app response time missing")
	}
	if res.AppHitRatio() < 0 || res.AppHitRatio() > 1 {
		t.Errorf("app hit ratio %f", res.AppHitRatio())
	}
	// Recovery cache stats must exclude the app stream.
	if res.Cache.Requests() != res.TotalRequests {
		t.Errorf("recovery stats polluted: %d != %d", res.Cache.Requests(), res.TotalRequests)
	}
	// Disk reads = recovery misses + app misses.
	appMisses := res.AppRequests - res.AppHits
	if res.DiskReads != res.Cache.Misses+appMisses {
		t.Errorf("DiskReads %d != recovery misses %d + app misses %d", res.DiskReads, res.Cache.Misses, appMisses)
	}
}

// TestAppConfigValidation pins the typed validation of the foreground
// workload knobs: each invalid field yields a *ConfigError naming it.
func TestAppConfigValidation(t *testing.T) {
	code := codes.MustNew("tip", 5)
	cases := []struct {
		name  string
		app   AppWorkload
		field string
	}{
		{name: "negative requests", app: AppWorkload{Requests: -1}, field: "App.Requests"},
		{name: "negative error locality", app: AppWorkload{Requests: 10, ErrorLocality: -0.5}, field: "App.ErrorLocality"},
		{name: "error locality above 1", app: AppWorkload{Requests: 10, ErrorLocality: 1.5}, field: "App.ErrorLocality"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			app := tc.app
			cfg := Config{Code: code, Policy: "lru", Strategy: core.StrategyLooped,
				Workers: 2, CacheChunks: 16, Stripes: 16, App: &app}
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

// TestAppEvictionSplit pins that evictions caused by the foreground
// stream land in AppEvictions, not in the recovery-stream Cache stats:
// every recovery eviction needs a recovery miss to insert the chunk, so
// Cache.Evictions can never exceed Cache.Misses once the app-induced
// ones are split out (before the split a busy app stream inflated the
// recovery figure past that bound).
func TestAppEvictionSplit(t *testing.T) {
	code := codes.MustNew("tip", 7)
	errors := genErrors(t, code, 20, 100, 27)
	base := Config{
		Code: code, Policy: "lru", Strategy: core.StrategyLooped,
		Workers: 2, CacheChunks: 8, Stripes: 100,
	}
	quiet, err := Run(base, errors)
	if err != nil {
		t.Fatal(err)
	}
	if quiet.AppEvictions != 0 {
		t.Errorf("AppEvictions = %d without an app workload", quiet.AppEvictions)
	}
	busy := base
	busy.App = &AppWorkload{Requests: 3000, Interarrival: 100 * sim.Microsecond, Seed: 5}
	loaded, err := Run(busy, errors)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.AppEvictions == 0 {
		t.Error("a busy app stream on a tiny cache evicted nothing")
	}
	if loaded.Cache.Evictions > loaded.Cache.Misses {
		t.Errorf("recovery evictions %d exceed recovery misses %d: app stream not split out",
			loaded.Cache.Evictions, loaded.Cache.Misses)
	}
	appMisses := loaded.AppRequests - loaded.AppHits
	if loaded.AppEvictions > appMisses {
		t.Errorf("app evictions %d exceed app misses %d", loaded.AppEvictions, appMisses)
	}
}

func TestOnlineRecoverySlowsReconstruction(t *testing.T) {
	code := codes.MustNew("tip", 7)
	errors := genErrors(t, code, 30, 150, 22)
	base := Config{
		Code: code, Policy: "lru", Strategy: core.StrategyLooped,
		Workers: 4, CacheChunks: 64, Stripes: 150,
	}
	quiet, err := Run(base, errors)
	if err != nil {
		t.Fatal(err)
	}
	busy := base
	// A heavy foreground stream: a request every 100 us.
	busy.App = &AppWorkload{Requests: 3000, Interarrival: 100 * sim.Microsecond, Seed: 2}
	loaded, err := Run(busy, errors)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Makespan <= quiet.Makespan {
		t.Errorf("foreground load did not slow recovery: %v <= %v", loaded.Makespan, quiet.Makespan)
	}
}

func TestOnlineRecoveryDeterministic(t *testing.T) {
	code := codes.MustNew("star", 5)
	errors := genErrors(t, code, 10, 50, 24)
	cfg := Config{
		Code: code, Policy: "fbf", Strategy: core.StrategyLooped,
		Workers: 2, CacheChunks: 32, Stripes: 50,
		App: &AppWorkload{Requests: 500, Interarrival: 200 * sim.Microsecond, Seed: 4},
	}
	a, err := Run(cfg, errors)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, errors)
	if err != nil {
		t.Fatal(err)
	}
	if a.AppHits != b.AppHits || a.AppSumResponse != b.AppSumResponse || a.Makespan != b.Makespan {
		t.Error("online recovery not deterministic")
	}
}
