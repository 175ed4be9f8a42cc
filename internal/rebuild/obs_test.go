package rebuild

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"fbf/internal/cache"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/obs"
	"fbf/internal/sim"
)

func obsTestConfig(code *codes.Code) Config {
	return Config{
		Code: code, Policy: "fbf", Strategy: core.StrategyLooped,
		Workers: 4, CacheChunks: 64, Stripes: 100,
	}
}

// TestTracedRunMatchesUntraced pins that attaching a tracer perturbs
// nothing: every measurement of the traced run must equal the plain
// run's bit for bit. The tracer is a pure reader of the simulation.
func TestTracedRunMatchesUntraced(t *testing.T) {
	code := codes.MustNew("tip", 7)
	errors := genErrors(t, code, 20, 100, 1)

	plain, err := Run(obsTestConfig(code), errors)
	if err != nil {
		t.Fatal(err)
	}
	cfg := obsTestConfig(code)
	collector := obs.NewCollector()
	cfg.Tracer = collector
	observed, err := Run(cfg, errors)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cache != observed.Cache || plain.DiskReads != observed.DiskReads ||
		plain.DiskWrites != observed.DiskWrites || plain.Makespan != observed.Makespan ||
		plain.SumResponse != observed.SumResponse || plain.TotalRequests != observed.TotalRequests ||
		plain.XORChunks != observed.XORChunks || plain.Groups != observed.Groups {
		t.Fatalf("observed run drifted from plain run:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
	if collector.Len() == 0 {
		t.Fatal("traced run emitted no events")
	}
	if err := obs.Validate(collector.Events()); err != nil {
		t.Fatalf("invalid event stream: %v", err)
	}
}

// TestTraceCarriesRunTotals pins that the trace alone accounts for a
// run's totals: for every registered policy, and for a run with a
// foreground workload that probes the recovery caches, the summarized
// trace's hit, miss and app instants, the summed counts of its evict
// instants, its group spans and its disk read and write spans equal the
// Result's counters.
func TestTraceCarriesRunTotals(t *testing.T) {
	code := codes.MustNew("tip", 7)
	errors := genErrors(t, code, 20, 100, 1)
	type row struct {
		name string
		cfg  Config
	}
	var rows []row
	for _, name := range cache.Names() {
		cfg := obsTestConfig(code)
		cfg.Policy = name
		rows = append(rows, row{name, cfg})
	}
	app := obsTestConfig(code)
	app.App = &AppWorkload{Requests: 200, Interarrival: sim.Millisecond / 4, Seed: 5, ErrorLocality: 1}
	rows = append(rows, row{"fbf+app", app})

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			collector := obs.NewCollector()
			r.cfg.Tracer = collector
			res, err := Run(r.cfg, errors)
			if err != nil {
				t.Fatal(err)
			}
			events := collector.Events()
			sum := obs.Summarize(events)
			counts := map[string]int{}
			for _, c := range sum.Counts {
				counts[c.Cat+"/"+c.Name] = c.Count
			}
			var evictions uint64
			for _, e := range events {
				if e.Cat == obs.CatCache && e.Name == "evict" {
					for _, a := range e.Args {
						if a.Key == "count" {
							evictions += uint64(a.Val)
						}
					}
				}
			}
			var reads, writes uint64
			for _, d := range sum.Disks {
				reads += uint64(d.Reads)
				writes += uint64(d.Writes)
			}
			for _, c := range []struct {
				what      string
				got, want uint64
			}{
				{"cache/hit", uint64(counts["cache/hit"]), res.Cache.Hits},
				{"cache/miss", uint64(counts["cache/miss"]), res.Cache.Misses},
				{"evict counts", evictions, res.Cache.Evictions},
				{"app/app-hit", uint64(counts["app/app-hit"]), res.AppHits},
				{"app/app-miss", uint64(counts["app/app-miss"]), res.AppRequests - res.AppHits},
				{"group spans", uint64(sum.Groups), uint64(res.Groups)},
				{"disk read spans", reads, res.DiskReads},
				{"disk write spans", writes, res.DiskWrites},
			} {
				if c.got != c.want {
					t.Errorf("trace %s = %d, Result says %d", c.what, c.got, c.want)
				}
			}
			if res.Cache.Evictions == 0 {
				t.Error("run evicted nothing: the evict check is blind")
			}
			if r.cfg.App != nil && (res.AppHits == 0 || res.AppHits == res.AppRequests) {
				t.Errorf("app run had %d hits of %d requests: the app checks are blind", res.AppHits, res.AppRequests)
			}
		})
	}
}

// TestTracedRunDeterministic pins byte-level trace reproducibility:
// two identical traced runs must serialize to identical JSONL.
func TestTracedRunDeterministic(t *testing.T) {
	code := codes.MustNew("star", 5)
	errors := genErrors(t, code, 12, 80, 3)
	export := func() []byte {
		cfg := obsTestConfig(code)
		cfg.Code = code
		c := obs.NewCollector()
		cfg.Tracer = c
		if _, err := Run(cfg, errors); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, c.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(export(), export()) {
		t.Fatal("identical traced runs produced different traces")
	}
}

// TestObsDisabledHotPathAllocs pins the zero-overhead-when-disabled
// contract at the allocation level: the helpers reachable with a nil
// tracer must not allocate, and an untraced run must not allocate
// anywhere in the instrumentation.
//
// The second half used to compare the process-wide malloc count of two
// untraced runs, which also counts what is not instrumentation: a
// sync.Pool private slot refilled after the goroutine changes P, and
// every other goroutine of the test binary. The heap profile at rate 1
// attributes each allocation to its stack instead, so the property is
// stated directly: an untraced run adds no allocation whose stack passes
// through internal/obs or the helpers of obs.go — and a traced run adds
// some, or the check would be blind.
func TestObsDisabledHotPathAllocs(t *testing.T) {
	e := &engine{}
	w := &worker{engine: e}
	if n := testing.AllocsPerRun(200, func() { w.closeChain() }); n != 0 {
		t.Errorf("closeChain with no open span allocates %.0f times", n)
	}

	code := codes.MustNew("tip", 7)
	errors := genErrors(t, code, 10, 100, 1)
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	obsAllocs := func(cfg Config) int64 {
		before := allocsThroughObs()
		if _, err := Run(cfg, errors); err != nil {
			t.Fatal(err)
		}
		return allocsThroughObs() - before
	}
	if n := obsAllocs(obsTestConfig(code)); n != 0 {
		t.Errorf("untraced run allocates %d times in the instrumentation", n)
	}
	traced := obsTestConfig(code)
	traced.Tracer = obs.NewCollector()
	if n := obsAllocs(traced); n == 0 {
		t.Error("traced run shows no allocation in the instrumentation: the heap profile does not see it")
	}
}

// allocsThroughObs returns how many objects the process has allocated so
// far, per the heap profile, on stacks that pass through internal/obs
// or a function of this package's obs.go. The allocating frame is also
// looked up at its return address: when a helper that returns a fresh
// slice is inlined, the compiler books the allocation at the call site
// and only the stores that fill it in the helper.
func allocsThroughObs() int64 {
	runtime.GC() // publishes every allocation made so far to the profile
	n, _ := runtime.MemProfile(nil, true)
	var records []runtime.MemProfileRecord
	for ok := false; !ok; {
		records = make([]runtime.MemProfileRecord, n+50)
		n, ok = runtime.MemProfile(records, true)
	}
	inObs := func(function, file string) bool {
		return strings.HasPrefix(function, "fbf/internal/obs.") || strings.HasSuffix(file, "/internal/rebuild/obs.go")
	}
	var total int64
	for _, r := range records[:n] {
		stack := r.Stack()
		if len(stack) == 0 {
			continue
		}
		through := false
		if leaf := runtime.FuncForPC(stack[0]); leaf != nil {
			file, _ := leaf.FileLine(stack[0])
			through = inObs(leaf.Name(), file)
		}
		frames := runtime.CallersFrames(stack)
		for more := !through; more; {
			var f runtime.Frame
			f, more = frames.Next()
			if inObs(f.Function, f.File) {
				through = true
				break
			}
		}
		if through {
			total += r.AllocObjects
		}
	}
	return total
}

// TestDORRejectsObservability pins that the DOR engine refuses a tracer
// it would silently ignore.
func TestDORRejectsObservability(t *testing.T) {
	code := codes.MustNew("tip", 7)
	errors := genErrors(t, code, 4, 100, 1)
	cfg := obsTestConfig(code)
	cfg.Mode = ModeDOR
	cfg.Tracer = obs.NewCollector()
	if _, err := Run(cfg, errors); err == nil {
		t.Fatal("DOR accepted a tracer it would ignore")
	}
}
