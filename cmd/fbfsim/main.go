// Command fbfsim regenerates the paper's evaluation artefacts on the
// simulated disk array: Figures 8–11 and Tables IV–V, plus the scheme
// ablation. With no artefact flag it runs the full evaluation. Every run
// writes its spares, and each figure grid is simulated once: Figures 8
// and 10 and Table V are views of one sweep over the codes and primes,
// Figures 9 and 11 of one sweep over TIP.
//
// Usage:
//
//	fbfsim [-fig 8|9|10|11] [-table 4|5] [-ablation] [-online] [-modes]
//	       [-codes star,triplestar,tip,hdd1] [-p 7,11,13]
//	       [-policies fifo,lru,lfu,arc,fbf] [-sizes 8,16,...,2048]
//	       [-groups N] [-workers N] [-stripes N] [-seed N]
//	       [-strategy typical|looped|greedy] [-dist uniform|fixed|geometric]
//	       [-csv] [-parallel N] [-progress]
//	       [-trace-out run.trace.json] [-trace-jsonl run.jsonl]
//	       [-metrics-out metrics.csv|metrics.json] [-metrics-interval MS]
//	       [-pprof-cpu cpu.prof] [-pprof-mem mem.prof]
//
// Sweeps fan their independent simulation runs out across cores
// (-parallel, default GOMAXPROCS); every run is an isolated
// deterministic simulation, so the output is identical at any
// parallelism level.
//
// An observability flag (-trace-out, -trace-jsonl, -metrics-out) runs a
// single instrumented rebuild instead of a sweep — the first configured
// (code, p, policy, size) point, or tip(p=13)/fbf/64MB by default — and
// writes the exports before a one-line summary. Traces are stamped in
// simulated time and reproduce byte for byte; load -trace-out in
// chrome://tracing or Perfetto, or feed -trace-jsonl to fbftrace.
package main

import (
	"fbf/internal/cache"
	"fbf/internal/cli"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/experiments"
	"fbf/internal/obs"
	"fbf/internal/rebuild"
	"fbf/internal/sim"
	"fbf/internal/trace"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fbfsim: ")

	params := experiments.DefaultParams()
	figFlag := flag.Int("fig", 0, "figure to regenerate (8, 9, 10 or 11)")
	tableFlag := flag.Int("table", 0, "table to regenerate (4 or 5)")
	ablation := flag.Bool("ablation", false, "run the chain-selection scheme ablation")
	online := flag.Bool("online", false, "run the online-recovery (foreground load) experiment")
	modes := flag.Bool("modes", false, "run the SOR-vs-DOR reconstruction-mode ablation")
	codesFlag := flag.String("codes", "", "comma-separated code families (default: paper's four)")
	primesFlag := flag.String("p", "", "comma-separated primes (default: per-figure paper values)")
	policiesFlag := flag.String("policies", "", "comma-separated cache policies (default: paper's five)")
	sizesFlag := flag.String("sizes", "", "comma-separated cache sizes in MB (default: paper's sweep)")
	groups := flag.Int("groups", params.Groups, "error groups per run")
	workers := flag.Int("workers", params.Workers, "parallel recovery processes")
	stripes := flag.Int("stripes", params.Stripes, "stripes on the array")
	seed := flag.Int64("seed", 1, "trace RNG seed")
	strategyFlag := flag.String("strategy", "looped", "chain-selection strategy (typical, looped, greedy)")
	distFlag := flag.String("dist", "uniform", "error-size distribution (uniform, fixed, geometric)")
	csv := flag.Bool("csv", false, "emit figures as CSV instead of text tables")
	parallel := flag.Int("parallel", 0, "concurrent simulation runs per sweep (0 = GOMAXPROCS, 1 = serial); results are identical at any level")
	progress := flag.Bool("progress", false, "report sweep progress on stderr")
	traceOut := flag.String("trace-out", "", "run one traced rebuild and write its Chrome trace-event JSON here (load in chrome://tracing or Perfetto)")
	traceJSONL := flag.String("trace-jsonl", "", "run one traced rebuild and write its event stream as JSONL here (fbftrace input)")
	metricsOut := flag.String("metrics-out", "", "run one instrumented rebuild and write its sampled metrics here (CSV if the path ends in .csv, JSON otherwise)")
	metricsInterval := flag.Float64("metrics-interval", 10, "metrics sampling period in simulated ms")
	pprofCPU := flag.String("pprof-cpu", "", "write a CPU profile of the whole invocation here")
	pprofMem := flag.String("pprof-mem", "", "write a heap profile at exit here")
	flag.Parse()

	params.Seed = *seed
	if *parallel < 0 {
		log.Fatalf("bad -parallel %d: must be >= 0", *parallel)
	}
	params.Parallelism = *parallel
	if *progress {
		params.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rfbfsim: %d/%d runs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	params.Groups, params.Workers, params.Stripes = *groups, *workers, *stripes
	if *codesFlag != "" {
		params.Codes = cli.SplitList(*codesFlag)
	}
	if *policiesFlag != "" {
		params.Policies = cli.SplitList(*policiesFlag)
	}
	if *primesFlag != "" {
		primes, err := cli.ParseIntsFlag("p", *primesFlag)
		if err != nil {
			log.Fatal(err)
		}
		params.Primes = primes
	}
	if *sizesFlag != "" {
		sizes, err := cli.ParseIntsFlag("sizes", *sizesFlag)
		if err != nil {
			log.Fatal(err)
		}
		params.CacheSizesMB = sizes
	}
	strategy, err := core.ParseStrategy(*strategyFlag)
	if err != nil {
		log.Fatal(err)
	}
	params.Strategy = strategy
	if params.Dist, err = trace.ParseSizeDist(*distFlag); err != nil {
		log.Fatalf("bad -dist: %v", err)
	}

	// Reject bad flags before any output path is created: creating one
	// truncates it, and a rejected run must leave old outputs alone.
	if *metricsInterval <= 0 {
		log.Fatalf("bad -metrics-interval %v: must be > 0 ms", *metricsInterval)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"groups", *groups}, {"workers", *workers}, {"stripes", *stripes}} {
		if f.v <= 0 {
			log.Fatalf("bad -%s %d: must be > 0", f.name, f.v)
		}
	}
	if *figFlag != 0 && !slices.Contains([]int{8, 9, 10, 11}, *figFlag) {
		log.Fatalf("unknown figure %d (have 8, 9, 10, 11)", *figFlag)
	}
	if *tableFlag != 0 && *tableFlag != 4 && *tableFlag != 5 {
		log.Fatalf("unknown table %d (have 4, 5)", *tableFlag)
	}
	for _, l := range []struct {
		name, raw string
		n         int
	}{
		{"codes", *codesFlag, len(params.Codes)},
		{"p", *primesFlag, len(params.Primes)},
		{"policies", *policiesFlag, len(params.Policies)},
		{"sizes", *sizesFlag, len(params.CacheSizesMB)},
	} {
		if l.raw != "" && l.n == 0 {
			log.Fatalf("bad -%s: empty list", l.name)
		}
	}
	if err := cli.CheckCodes(params.Codes, params.Primes); err != nil {
		log.Fatal(err)
	}
	for _, name := range params.Policies {
		if _, err := cache.New(name, 0); err != nil {
			log.Fatalf("bad -policies: %v", err)
		}
	}

	// Validate every output path up front: a long simulation must not
	// discover an unwritable -trace-out/-metrics-out/-pprof-* path only
	// when it finally tries to write.
	outputs := map[string]*os.File{}
	for _, o := range []struct{ name, path string }{
		{"trace-out", *traceOut},
		{"trace-jsonl", *traceJSONL},
		{"metrics-out", *metricsOut},
		{"pprof-cpu", *pprofCPU},
		{"pprof-mem", *pprofMem},
	} {
		if o.path == "" {
			continue
		}
		f, err := cli.CreateOutput(o.name, o.path)
		if err != nil {
			log.Fatal(err)
		}
		outputs[o.name] = f
		defer f.Close()
	}
	if f := outputs["pprof-cpu"]; f != nil {
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("bad -pprof-cpu: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if f := outputs["pprof-mem"]; f != nil {
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("bad -pprof-mem: %v", err)
			}
		}()
	}

	runAll := *figFlag == 0 && *tableFlag == 0 && !*ablation && !*online && !*modes
	out := os.Stdout

	// Figures 9 and 11 and Table IV take TIPPrimes unless -p is given.
	tipParams := params
	if *primesFlag == "" {
		tipParams.Primes = experiments.TIPPrimes()
	}
	// Figures 8 and 10 and Table V are views of one sweep over the
	// configured codes and primes, Figures 9 and 11 of one over TIP; each
	// runs at most once.
	type grid struct {
		p      experiments.Params
		points []experiments.Point
	}
	codesGrid, tipGrid := &grid{p: params}, &grid{p: experiments.TIPGrid(tipParams)}
	sweep := func(g *grid) *grid {
		if g.points == nil {
			points, err := experiments.Sweep(g.p)
			if err != nil {
				log.Fatalf("sweep: %v", err)
			}
			g.points = points
		}
		return g
	}

	runFig := func(n int) {
		g := codesGrid
		if n == 9 || n == 11 {
			g = tipGrid
		}
		fig, err := experiments.FigureOf(n, sweep(g).points, g.p)
		if err != nil {
			log.Fatal(err)
		}
		if *csv {
			if err := experiments.RenderFigureCSV(out, fig); err != nil {
				log.Fatal(err)
			}
			return
		}
		if err := experiments.RenderFigure(out, fig, g.p.Policies); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}

	runTable := func(n int) {
		switch n {
		case 4:
			rows, err := experiments.Table4(tipParams)
			if err != nil {
				log.Fatalf("table 4: %v", err)
			}
			if err := experiments.RenderTable4(out, rows, tipParams.Codes); err != nil {
				log.Fatal(err)
			}
		case 5:
			if err := experiments.RenderTable5(out, experiments.Table5(sweep(codesGrid).points)); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Fprintln(out)
	}

	runAblation := func() {
		p := params
		rows, err := experiments.SchemeAblation(p)
		if err != nil {
			log.Fatalf("ablation: %v", err)
		}
		if err := experiments.RenderSchemeAblation(out, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}

	runOnline := func() {
		p := params
		if *codesFlag == "" {
			p.Codes = []string{"tip"}
		}
		if *primesFlag == "" {
			p.Primes = []int{13}
		}
		rows, err := experiments.OnlineRecovery(p, rebuild.AppWorkload{Seed: p.Seed})
		if err != nil {
			log.Fatalf("online: %v", err)
		}
		if err := experiments.RenderOnline(out, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}

	runModes := func() {
		p := params
		if *codesFlag == "" {
			p.Codes = []string{"tip"}
		}
		if *primesFlag == "" {
			p.Primes = []int{13}
		}
		rows, err := experiments.ModeComparison(p)
		if err != nil {
			log.Fatalf("modes: %v", err)
		}
		if err := experiments.RenderModes(out, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}

	// An observability sink runs one instrumented rebuild instead of a
	// sweep: the first configured (code, p, policy, size) point — or the
	// paper's tip(p=13)/fbf/64MB when the axes were left at their
	// defaults — traced and/or sampled, with the exports written before
	// the summary line. The trace is stamped in simulated time, so the
	// same flags reproduce it byte for byte.
	if outputs["trace-out"] != nil || outputs["trace-jsonl"] != nil || outputs["metrics-out"] != nil {
		codeName, prime, policy, sizeMB := "tip", 13, "fbf", 64
		if *codesFlag != "" {
			codeName = params.Codes[0]
		}
		if *primesFlag != "" {
			prime = params.Primes[0]
		}
		if *policiesFlag != "" {
			policy = params.Policies[0]
		}
		if *sizesFlag != "" {
			sizeMB = params.CacheSizesMB[0]
		}
		code, err := codes.New(codeName, prime)
		if err != nil {
			log.Fatal(err)
		}
		errs, err := trace.Generate(code, trace.Config{
			Groups: params.Groups, Stripes: params.Stripes,
			Seed: params.Seed, Disk: -1, Dist: params.Dist,
		})
		if err != nil {
			log.Fatal(err)
		}
		cfg := rebuild.Config{
			Code: code, Policy: policy, Strategy: params.Strategy,
			Workers: params.Workers, CacheChunks: params.CacheChunks(sizeMB),
			ChunkSize: params.ChunkSizeKB * 1024, Stripes: params.Stripes,
		}
		var collector *obs.Collector
		if outputs["trace-out"] != nil || outputs["trace-jsonl"] != nil {
			collector = obs.NewCollector()
			cfg.Tracer = collector
		}
		var reg *obs.Registry
		if outputs["metrics-out"] != nil {
			reg = obs.NewRegistry()
			cfg.Metrics = reg
			cfg.MetricsInterval = sim.Time(*metricsInterval * float64(sim.Millisecond))
		}
		res, err := rebuild.Run(cfg, errs)
		if err != nil {
			log.Fatal(err)
		}
		if f := outputs["trace-out"]; f != nil {
			if err := obs.WriteChrome(f, collector.Events()); err != nil {
				log.Fatalf("-trace-out: %v", err)
			}
		}
		if f := outputs["trace-jsonl"]; f != nil {
			if err := obs.WriteJSONL(f, collector.Events()); err != nil {
				log.Fatalf("-trace-jsonl: %v", err)
			}
		}
		if f := outputs["metrics-out"]; f != nil {
			if strings.HasSuffix(*metricsOut, ".csv") {
				err = reg.WriteCSV(f)
			} else {
				err = reg.WriteJSON(f)
			}
			if err != nil {
				log.Fatalf("-metrics-out: %v", err)
			}
		}
		events := 0
		if collector != nil {
			events = collector.Len()
		}
		fmt.Fprintf(out, "observed run %s(p=%d) %s %dMB: hit ratio %.3f, %d disk reads, %v reconstruction, %d trace events\n",
			codeName, prime, policy, sizeMB, res.HitRatio(), res.DiskReads, res.Makespan, events)
		return
	}

	switch {
	case runAll:
		for _, n := range []int{8, 9, 10, 11} {
			runFig(n)
		}
		runTable(4)
		runTable(5)
		runAblation()
		runOnline()
		runModes()
	default:
		if *figFlag != 0 {
			runFig(*figFlag)
		}
		if *tableFlag != 0 {
			runTable(*tableFlag)
		}
		if *ablation {
			runAblation()
		}
		if *online {
			runOnline()
		}
		if *modes {
			runModes()
		}
	}
}
