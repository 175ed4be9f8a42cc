// Command fbfverify runs the byte-level conformance harness from the
// command line: the stripe recovery sweep (every single-disk partial
// stripe error pattern, recovered through the generated schemes and
// cross-checked against the GF(2) decoder oracle), the cache-policy
// model check (randomized streams diffed step-by-step against reference
// models), and an end-to-end pass through the storage engine
// (rebuild.RunService on an in-memory store), whose every chunk is then
// compared with the stripe recomputed from its seed.
//
// Usage:
//
//	fbfverify [-codes star,triplestar,tip,hdd1] [-p 5,7]
//	          [-strategies typical,looped,greedy] [-chunk 64] [-seed 1]
//	          [-policies fbf,lru,...] [-steps 10000] [-caps 1,2,3,8,32]
//	          [-stripe-sweep] [-cache-check] [-engine]
//
// The exit status is non-zero if any check finds a divergence, making
// the binary suitable as a CI gate.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"fbf/internal/cli"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/rebuild"
	"fbf/internal/store"
	"fbf/internal/trace"
	"fbf/internal/verify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fbfverify: ")

	codesFlag := flag.String("codes", "star,triplestar,tip,hdd1", "comma-separated code families to sweep")
	primesFlag := flag.String("p", "5,7", "comma-separated primes per family")
	strategiesFlag := flag.String("strategies", "typical,looped,greedy", "comma-separated chain-selection strategies")
	chunkSize := flag.Int("chunk", 64, "chunk size in bytes for materialized stripes")
	seed := flag.Int64("seed", 1, "seed for stripe contents and request streams")
	policiesFlag := flag.String("policies", strings.Join(verify.CheckedPolicies(), ","), "comma-separated cache policies to model-check")
	steps := flag.Int("steps", 10000, "randomized requests per (policy, capacity) model check")
	capsFlag := flag.String("caps", "1,2,3,8,32", "comma-separated cache capacities (chunks) to model-check")
	stripeSweep := flag.Bool("stripe-sweep", true, "run the stripe recovery conformance sweep")
	cacheCheck := flag.Bool("cache-check", true, "run the cache-policy model check")
	engine := flag.Bool("engine", true, "run a storage-engine rebuild pass per (code, prime)")
	flag.Parse()

	// An empty list would skip its checks, and the run would still pass.
	for _, l := range []struct{ name, raw string }{
		{"codes", *codesFlag},
		{"p", *primesFlag},
		{"strategies", *strategiesFlag},
		{"policies", *policiesFlag},
		{"caps", *capsFlag},
	} {
		if len(cli.SplitList(l.raw)) == 0 {
			log.Fatalf("bad -%s: empty list", l.name)
		}
	}
	var strategies []core.Strategy
	for _, name := range cli.SplitList(*strategiesFlag) {
		s, err := core.ParseStrategy(name)
		if err != nil {
			log.Fatal(err)
		}
		strategies = append(strategies, s)
	}
	primes, err := cli.ParseInts(*primesFlag)
	if err != nil {
		log.Fatalf("bad -p: %v", err)
	}
	caps, err := cli.ParseInts(*capsFlag)
	if err != nil {
		log.Fatalf("bad -caps: %v", err)
	}
	for _, c := range caps {
		if c < 0 {
			log.Fatalf("bad -caps: negative capacity %d", c)
		}
	}
	if *chunkSize <= 0 {
		log.Fatalf("bad -chunk: non-positive size %d", *chunkSize)
	}
	if *steps <= 0 {
		log.Fatalf("bad -steps: non-positive count %d", *steps)
	}
	// A bad name must fail the run before its first "ok" line, not after
	// the checks listed ahead of it have passed.
	if err := cli.CheckCodes(cli.SplitList(*codesFlag), primes); err != nil {
		log.Fatal(err)
	}
	for _, name := range cli.SplitList(*policiesFlag) {
		if !slices.Contains(verify.CheckedPolicies(), name) {
			log.Fatalf("bad -policies: no reference model for %q (have %s)", name, strings.Join(verify.CheckedPolicies(), ","))
		}
	}

	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Fprintf(os.Stderr, "FAIL "+format+"\n", args...)
	}

	if *stripeSweep {
		for _, name := range cli.SplitList(*codesFlag) {
			for _, p := range primes {
				code, err := codes.New(name, p)
				if err != nil {
					log.Fatal(err)
				}
				rep, err := verify.SweepStripes(verify.StripeConfig{
					Code:       code,
					Strategies: strategies,
					ChunkSize:  *chunkSize,
					Seed:       *seed,
				})
				if err != nil {
					fail("stripe sweep %s(p=%d): %v", name, p, err)
					continue
				}
				fmt.Printf("ok   stripe sweep %v\n", rep)
			}
		}
	}

	if *cacheCheck {
		for _, policy := range cli.SplitList(*policiesFlag) {
			for _, capacity := range caps {
				rep, err := verify.CheckCache(verify.CacheConfig{
					Policy:   policy,
					Capacity: capacity,
					Steps:    *steps,
					Seed:     *seed,
				})
				if err != nil {
					fail("cache check %s cap=%d: %v", policy, capacity, err)
					continue
				}
				fmt.Printf("ok   cache check %s cap=%d: %d steps, %d hits, %d evictions\n",
					rep.Policy, rep.Capacity, rep.Steps, rep.Stats.Hits, rep.Stats.Evictions)
			}
		}
	}

	if *engine {
		for _, name := range cli.SplitList(*codesFlag) {
			for _, p := range primes {
				traced, killed, err := enginePass(name, p, *chunkSize, *seed, nil)
				if err != nil {
					fail("engine pass %s(p=%d): %v", name, p, err)
					continue
				}
				fmt.Printf("ok   engine pass %s(p=%d): %d chunks of a partial-stripe trace and %d of three dead disks rebuilt byte-exact\n",
					name, p, traced, killed)
			}
		}
	}

	if failures > 0 {
		log.Fatalf("%d check(s) failed", failures)
	}
	fmt.Println("all checks passed")
}

// enginePass drives the storage engine over real bytes for one code: it
// writes a clean in-memory array, deletes the cells of a partial-stripe
// trace (64 groups over 256 stripes, repaired through single chains) and
// rebuilds, then kills three whole disks (repaired by the
// read-once decode) and rebuilds again. After each rebuild it compares
// every chunk with the stripe recomputed from the seed, so a wrong chunk
// fails the pass whatever the engine reported. wrap, when non-nil, stands
// between the engine and the store. It returns the chunks each rebuild
// wrote.
func enginePass(name string, p, chunkSize int, seed int64, wrap func(store.Backend) store.Backend) (traced, killed int, err error) {
	code, err := codes.New(name, p)
	if err != nil {
		return 0, 0, err
	}
	const stripes = 256
	m := store.ArrayManifest{Code: name, P: p, Disks: code.Disks(), Rows: code.Rows(), Stripes: stripes, ChunkSize: chunkSize}
	mem := store.NewMem()
	if err := rebuild.InitStore(mem, m, seed); err != nil {
		return 0, 0, err
	}
	var backend store.Backend = mem
	if wrap != nil {
		backend = wrap(mem)
	}
	errs, err := trace.Generate(code, trace.Config{Groups: 64, Stripes: stripes, Seed: seed, Disk: -1})
	if err != nil {
		return 0, 0, err
	}
	var partial, disks []store.Addr
	for _, e := range errs {
		for _, cell := range e.LostCells() {
			partial = append(partial, rebuild.AddrOf(e.Stripe, cell))
		}
	}
	for _, disk := range []int{0, m.Disks / 2, m.Disks - 1} {
		for s := 0; s < stripes; s++ {
			for row := 0; row < m.Rows; row++ {
				disks = append(disks, store.Addr{Disk: disk, Stripe: s, Chunk: row})
			}
		}
	}
	var rebuilt [2]int
	for i, damage := range [][]store.Addr{partial, disks} {
		for _, a := range damage {
			if err := mem.Delete(a); err != nil && !store.IsNotFound(err) {
				return 0, 0, err
			}
		}
		res, err := rebuild.RunService(rebuild.ServiceConfig{Backend: backend, Manifest: m, Strategy: core.StrategyLooped})
		if err != nil {
			return 0, 0, err
		}
		if err := matchSeed(mem, code, m, seed); err != nil { // a chunk reported lost is missing here
			return 0, 0, err
		}
		rebuilt[i] = res.ChunksRebuilt
	}
	return rebuilt[0], rebuilt[1], nil
}

// matchSeed compares every chunk of the store with its stripe recomputed
// from the seed InitStore wrote it with.
func matchSeed(b store.Backend, code *codes.Code, m store.ArrayManifest, seed int64) error {
	want := code.NewStripe(m.ChunkSize)
	got := make([]byte, m.ChunkSize)
	for s := 0; s < m.Stripes; s++ {
		code.MaterializeStripeInto(want, rebuild.StripeSeed(seed, s))
		for idx, w := range want {
			a := rebuild.AddrOf(s, code.CoordOf(idx))
			n, err := b.ReadChunk(a, got)
			if err != nil {
				return err
			}
			if !bytes.Equal(got[:n], w) {
				return fmt.Errorf("chunk %v differs from the stripe recomputed from the seed", a)
			}
		}
	}
	return nil
}
