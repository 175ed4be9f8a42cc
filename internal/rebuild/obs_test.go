package rebuild

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

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

// TestTracedRunMatchesUntraced pins that attaching a tracer and a
// metrics registry perturbs nothing: every measurement of the observed
// run must equal the plain run's bit for bit. The observability layer
// is a pure reader of the simulation.
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
	cfg.Metrics = obs.NewRegistry()
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
	if cfg.Metrics.Samples() < 2 {
		t.Fatalf("metrics registry sampled only %d times", cfg.Metrics.Samples())
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
	if n := testing.AllocsPerRun(200, func() { e.recordResponse(sim.Millisecond) }); n != 0 {
		t.Errorf("recordResponse without histograms allocates %.0f times", n)
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

// TestDORRejectsObservability pins that the DOR engine refuses sinks it
// would silently ignore.
func TestDORRejectsObservability(t *testing.T) {
	code := codes.MustNew("tip", 7)
	errors := genErrors(t, code, 4, 100, 1)
	cfg := obsTestConfig(code)
	cfg.Mode = ModeDOR
	cfg.Tracer = obs.NewCollector()
	if _, err := Run(cfg, errors); err == nil {
		t.Fatal("DOR accepted a tracer it would ignore")
	}
	cfg.Tracer = nil
	cfg.Metrics = obs.NewRegistry()
	if _, err := Run(cfg, errors); err == nil {
		t.Fatal("DOR accepted a metrics registry it would ignore")
	}
}

// TestMetricsValidation pins the MetricsInterval validation.
func TestMetricsValidation(t *testing.T) {
	code := codes.MustNew("tip", 7)
	errors := genErrors(t, code, 4, 100, 1)
	cfg := obsTestConfig(code)
	cfg.MetricsInterval = -sim.Millisecond
	if _, err := Run(cfg, errors); err == nil {
		t.Fatal("negative MetricsInterval accepted")
	}
	cfg.MetricsInterval = sim.Millisecond // without a registry
	if _, err := Run(cfg, errors); err == nil {
		t.Fatal("MetricsInterval without Metrics accepted")
	}
}

// TestMetricsRegistrySampling checks the sampled columns cover the
// cache, disk and FBF-queue gauges.
func TestMetricsRegistrySampling(t *testing.T) {
	code := codes.MustNew("tip", 7)
	errors := genErrors(t, code, 20, 100, 1)
	cfg := obsTestConfig(code)
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	cfg.MetricsInterval = 5 * sim.Millisecond
	res, err := Run(cfg, errors)
	if err != nil {
		t.Fatal(err)
	}
	cols := map[string]int{}
	for i, c := range reg.Columns() {
		cols[c] = i
	}
	for _, want := range []string{"requests", "hits", "misses", "hit_ratio", "evictions",
		"disks_inflight", "disk0_inflight", "fbf_q1", "fbf_q2", "fbf_q3", "groups_done"} {
		if _, ok := cols[want]; !ok {
			t.Errorf("missing metric column %q (have %v)", want, reg.Columns())
		}
	}
	// The final sample must agree with the run's result counters.
	_, last := reg.Row(reg.Samples() - 1)
	if got := uint64(last[cols["requests"]]); got != res.TotalRequests {
		t.Errorf("final requests sample %d != result %d", got, res.TotalRequests)
	}
	if got := uint64(last[cols["misses"]]); got != res.Cache.Misses {
		t.Errorf("final misses sample %d != result %d", got, res.Cache.Misses)
	}
	if got := int(last[cols["groups_done"]]); got != res.Groups {
		t.Errorf("final groups_done sample %d != %d groups", got, res.Groups)
	}
	// The response-time histogram holds one observation per request.
	var js bytes.Buffer
	if err := reg.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Histograms []struct {
			Name  string `json:"name"`
			Total uint64 `json:"total"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Histograms) != 1 || doc.Histograms[0].Name != "response_ms" || doc.Histograms[0].Total != res.TotalRequests {
		t.Errorf("histograms = %+v, want response_ms with %d observations", doc.Histograms, res.TotalRequests)
	}
}
