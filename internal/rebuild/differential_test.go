package rebuild

import (
	"fmt"
	"sort"
	"testing"

	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/store"
)

// diffTrace is one (code, prime) of the differential: its error trace,
// one group per stripe in ascending stripe order, and the manifest of
// the array the service repairs.
type diffTrace struct {
	name   string
	code   *codes.Code
	errors []core.PartialStripeError
	m      store.ArrayManifest
}

// The differential's array: one error group on each of its stripes.
const diffStripes, diffSeed = 64, 7

// TestSimulatorAndServiceAgree is the differential between the two
// engines, stated as plan agreement: the same code, error trace (one
// group per stripe, repaired in ascending stripe order) and strategy
// through the event simulator with one worker and through the real-bytes
// service on a memstore. The service reads each planned source once, so
// its disk reads must equal the sum of the plan's distinct fetches
// (Scheme.UniqueFetches, from core.GenerateScheme as the simulator plans
// each group), booked as misses with no hit. It covers the four codes at
// three primes under both of the paper's strategies.
//
// Each policy and cache size is a subtest of its own, on the simulator's
// side: its requests are the plan's, and its disk reads are never fewer
// than the service's. A cache that holds chunks between the chains of a
// stripe can at best tie reading each source once (EXPERIMENTS, "Fig 9
// on real bytes"): no chunk is shared across stripes, and the service
// holds every chain's sum of a stripe at once.
func TestSimulatorAndServiceAgree(t *testing.T) {
	var traces []diffTrace
	service := map[string]diffPlan{} // by trace and strategy
	strategies := []core.Strategy{core.StrategyTypical, core.StrategyLooped}
	for _, codeName := range []string{"star", "triplestar", "tip", "hdd1"} {
		for _, p := range []int{5, 7, 13} {
			code := codes.MustNew(codeName, p)
			errors := genErrors(t, code, diffStripes, diffStripes, diffSeed)
			sort.Slice(errors, func(i, j int) bool { return errors[i].Stripe < errors[j].Stripe })
			for i, e := range errors {
				if e.Stripe != i {
					t.Fatalf("%s p=%d: trace is not one group per stripe: group %d is on stripe %d", codeName, p, i, e.Stripe)
				}
			}
			tr := diffTrace{
				name: fmt.Sprintf("%s-p%d", codeName, p), code: code, errors: errors,
				m: testManifest(codeName, p, diffStripes, 64),
			}
			traces = append(traces, tr)
			for _, strategy := range strategies {
				var pl diffPlan
				for _, e := range errors {
					scheme, err := core.GenerateScheme(code, e, strategy)
					if err != nil {
						t.Fatal(err)
					}
					pl.fetches += uint64(scheme.UniqueFetches())
					pl.requests += uint64(scheme.TotalRequests())
				}
				pl.svc = serviceRun(t, tr, strategy)
				service[fmt.Sprint(tr.name, strategy)] = pl
			}
		}
	}
	for _, policy := range []string{"fbf", "lru", "lfu", "arc", "fifo"} {
		for _, size := range []int{2, 4, 8, 16, 64} {
			t.Run(fmt.Sprintf("%s-%d", policy, size), func(t *testing.T) {
				for _, tr := range traces {
					for _, strategy := range strategies {
						t.Run(fmt.Sprintf("%s-%s", tr.name, strategy), func(t *testing.T) {
							agree(t, tr, strategy, policy, size, service[fmt.Sprint(tr.name, strategy)])
						})
					}
				}
			})
		}
	}
}

// diffPlan is one trace's plan under one strategy, summed over its
// schemes, and the service's repair of it.
type diffPlan struct {
	fetches, requests uint64
	svc               *ServiceResult
}

// serviceRun repairs one trace's damage through the service.
func serviceRun(t *testing.T, tr diffTrace, strategy core.Strategy) *ServiceResult {
	t.Helper()
	b := initMem(t, tr.m, diffSeed)
	for _, e := range tr.errors {
		loseCells(t, b, e.Stripe, e.LostCells())
	}
	svc, err := RunService(ServiceConfig{Backend: b, Manifest: tr.m, Strategy: strategy})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// agree runs one trace through the simulator under one policy and cache
// size and holds both engines to the plan: the service to its distinct
// fetches, the simulator to its requests and to no fewer reads.
func agree(t *testing.T, tr diffTrace, strategy core.Strategy, policy string, size int, pl diffPlan) {
	t.Helper()
	svc := pl.svc
	if svc.DiskReads != pl.fetches || svc.CacheMisses != pl.fetches || svc.CacheHits != 0 {
		t.Fatalf("service %d reads, %d misses, %d hits; the plan fetches %d distinct chunks", svc.DiskReads, svc.CacheMisses, svc.CacheHits, pl.fetches)
	}
	sim, err := Run(Config{
		Code: tr.code, Policy: policy, Strategy: strategy,
		Workers: 1, CacheChunks: size, Stripes: tr.m.Stripes,
	}, tr.errors)
	if err != nil {
		t.Fatal(err)
	}
	// Looped repairs share chunks across chain directions, so fbf with
	// room for a few chains must hit; typical's horizontal chains share
	// none.
	if sim.Cache.Hits == 0 && strategy == core.StrategyLooped && policy == "fbf" && size >= 8 {
		t.Fatalf("degenerate trace: no hits with %d chunks of fbf cache", size)
	}
	if sim.TotalRequests != pl.requests || sim.Cache.Hits+sim.Cache.Misses != pl.requests || sim.DiskReads < svc.DiskReads {
		t.Fatalf("simulator %d requests (%d hits, %d misses), %d reads; the plan makes %d requests, the service read %d",
			sim.TotalRequests, sim.Cache.Hits, sim.Cache.Misses, sim.DiskReads, pl.requests, svc.DiskReads)
	}
}
