package rebuild

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/sim"
	"fbf/internal/stats"
)

func TestAIMDNextSpec(t *testing.T) {
	cfg := QoSConfig{SLOp99Ms: 50, MaxRate: 400}
	cases := []struct {
		rate     float64
		breached bool
		want     float64
	}{
		{100, false, 110}, // additive increase
		{100, true, 50},   // multiplicative decrease
		{395, false, 400}, // increase clamps at ceiling
		{400, false, 400}, // stays at ceiling
		{8, true, 5},      // decrease clamps at floor
		{5, true, 5},      // stays at floor
		{5, false, 15},    // recovers from the floor additively
		{12, true, 6},     // plain halving above the floor
		{399.5, false, 400},
	}
	for _, c := range cases {
		if got := AIMDNext(c.rate, c.breached, cfg); got != c.want {
			t.Errorf("AIMDNext(%v, %v) = %v, want %v", c.rate, c.breached, got, c.want)
		}
	}
	// A zero MaxRate selects the default ceiling of 400.
	if got := AIMDNext(100, false, QoSConfig{SLOp99Ms: 1}); got != 110 {
		t.Errorf("defaulted increase: got %v, want 110", got)
	}
	if got := AIMDNext(100, true, QoSConfig{SLOp99Ms: 1}); got != 50 {
		t.Errorf("defaulted decrease: got %v, want 50", got)
	}
	if got := AIMDNext(1000, false, QoSConfig{SLOp99Ms: 1}); got != 400 {
		t.Errorf("defaulted ceiling: got %v, want 400", got)
	}
}

// modelCheckTrace replays a recorded AIMD trace against the pure spec:
// every window's rate transition must be AIMDNext of its predecessor,
// the verdict must match the recorded p99 against the SLO, and
// consecutive steps must chain (RateBefore == previous RateAfter).
func modelCheckTrace(t *testing.T, steps []AIMDStep, cfg QoSConfig) {
	t.Helper()
	d := cfg.withDefaults()
	prev := d.InitialRate
	var lastAt sim.Time
	for i, s := range steps {
		if s.RateBefore != prev {
			t.Fatalf("step %d: RateBefore = %v, want %v (chain broken)", i, s.RateBefore, prev)
		}
		if s.Breached != (s.P99Ms > d.SLOp99Ms) {
			t.Fatalf("step %d: Breached = %v with p99 %v vs SLO %v", i, s.Breached, s.P99Ms, d.SLOp99Ms)
		}
		if want := AIMDNext(s.RateBefore, s.Breached, cfg); s.RateAfter != want {
			t.Fatalf("step %d: RateAfter = %v, want AIMDNext = %v", i, s.RateAfter, want)
		}
		if s.WindowOps < qosMinSamples {
			t.Fatalf("step %d: judged %d ops below sample floor %d", i, s.WindowOps, qosMinSamples)
		}
		if i > 0 && s.At <= lastAt {
			t.Fatalf("step %d: decision time %v not after previous %v", i, s.At, lastAt)
		}
		prev, lastAt = s.RateAfter, s.At
	}
}

// TestAIMDControllerModelCheck drives the running controller through
// >= 10k judged windows of seeded pseudo-random latencies and verifies
// every recorded step against an independent shadow histogram and the
// pure AIMDNext spec.
func TestAIMDControllerModelCheck(t *testing.T) {
	cfg := QoSConfig{SLOp99Ms: 40, InitialRate: 120}
	q := newQoSController(cfg, 4)
	shadow, err := stats.NewHistogram(qosWindowBoundsMs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	const windows = 24_000
	now := sim.Time(0)
	rate := q.cfg.InitialRate
	judged := 0
	for w := 0; w < windows; w++ {
		// Vary the sample count; some windows stay under the floor and
		// must accumulate into the next judgment instead of stepping.
		n := rng.Intn(14)
		for i := 0; i < n; i++ {
			// Log-uniform latency 0.5 .. 500 ms straddling the SLO.
			ms := 0.5 * math.Pow(10, rng.Float64()*3)
			q.observe(ms)
			shadow.Add(ms)
		}
		now += qosWindow
		before := len(q.steps)
		q.tick(now)
		if shadow.Total() < qosMinSamples {
			if len(q.steps) != before {
				t.Fatalf("window %d: stepped on %d samples below floor %d", w, shadow.Total(), qosMinSamples)
			}
			continue
		}
		if len(q.steps) != before+1 {
			t.Fatalf("window %d: no step despite %d samples", w, shadow.Total())
		}
		s := q.steps[before]
		if s.At != now {
			t.Fatalf("window %d: At = %v, want %v", w, s.At, now)
		}
		if s.WindowOps != shadow.Total() {
			t.Fatalf("window %d: WindowOps = %d, shadow %d", w, s.WindowOps, shadow.Total())
		}
		if p99 := shadow.Quantile(0.99); s.P99Ms != p99 {
			t.Fatalf("window %d: P99Ms = %v, shadow %v", w, s.P99Ms, p99)
		}
		if s.Breached != (s.P99Ms > cfg.SLOp99Ms) {
			t.Fatalf("window %d: Breached = %v with p99 %v", w, s.Breached, s.P99Ms)
		}
		if s.RateBefore != rate {
			t.Fatalf("window %d: RateBefore = %v, want %v", w, s.RateBefore, rate)
		}
		if want := AIMDNext(rate, s.Breached, cfg); s.RateAfter != want || q.rate != want {
			t.Fatalf("window %d: RateAfter = %v (controller %v), want %v", w, s.RateAfter, q.rate, want)
		}
		rate = s.RateAfter
		shadow.Reset()
		judged++
	}
	if judged < 10_000 {
		t.Fatalf("judged only %d windows, want >= 10000", judged)
	}
	modelCheckTrace(t, q.steps, cfg)
	if got := q.rate; got < qosMinRate || got > q.cfg.MaxRate {
		t.Errorf("final rate %v escaped [%v, %v]", got, qosMinRate, q.cfg.MaxRate)
	}
}

func TestQoSGateAccountsDelay(t *testing.T) {
	q := newQoSController(QoSConfig{SLOp99Ms: 50, InitialRate: 100}, 2)
	for i := 0; i < qosBurst; i++ {
		if at := q.gate(0, 0); at != 0 {
			t.Fatalf("gate %d inside the burst: got %v, want 0", i, at)
		}
	}
	at := q.gate(0, 0)
	if at != 10*sim.Millisecond {
		t.Fatalf("first gate past the burst: got %v, want 10ms", at)
	}
	if q.throttleDelay != 10*sim.Millisecond {
		t.Fatalf("throttleDelay = %v, want 10ms", q.throttleDelay)
	}
	// Disks index independent buckets; out-of-range disks pass through.
	if at := q.gate(1, 0); at != 0 {
		t.Fatalf("disk 1 first gate: got %v, want 0", at)
	}
	if at := q.gate(-1, 5); at != 5 {
		t.Fatalf("out-of-range gate: got %v, want now", at)
	}
	if at := q.gate(7, 5); at != 5 {
		t.Fatalf("out-of-range gate: got %v, want now", at)
	}
}

func TestQoSConfigValidate(t *testing.T) {
	if err := (&QoSConfig{SLOp99Ms: 30}).Validate(); err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
	bad := []QoSConfig{
		{},             // missing SLO
		{SLOp99Ms: -1}, // negative SLO
		{SLOp99Ms: 30, InitialRate: -5},
		{SLOp99Ms: 30, MaxRate: 4}, // ceiling below the floor of 5
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, c)
		} else if _, ok := err.(*ConfigError); !ok {
			t.Errorf("case %d: error %T is not *ConfigError", i, err)
		}
	}
}

// servingQoSConfig is the pinned sub-saturation scenario shared by the
// SLO and model-check tests: a 13-disk TIP array serving 200 ops/s with
// a 10% write mix while 24 partial stripe errors rebuild.
func servingQoSConfig(code *codes.Code, qos *QoSConfig) Config {
	return Config{
		Code: code, Policy: "lru", Strategy: core.StrategyLooped,
		Workers: 16, CacheChunks: 256, Stripes: 512,
		Serving: &ServingConfig{
			Ops: 3000, Rate: 200, ZipfS: 1.2, WriteFrac: 0.1, HotFrac: 0.3, Seed: 9,
			QoS: qos,
		},
	}
}

// TestServingQoSTraceModelCheck verifies an end-to-end serving run's
// recorded QoS trace against the pure AIMD spec.
func TestServingQoSTraceModelCheck(t *testing.T) {
	qos := QoSConfig{SLOp99Ms: 100, InitialRate: 10, MaxRate: 50}
	code := codes.MustNew("tip", 13)
	res, err := Run(servingQoSConfig(code, &qos), genErrors(t, code, 24, 512, 5))
	if err != nil {
		t.Fatal(err)
	}
	sr := res.Serving
	if len(sr.QoSTrace) == 0 {
		t.Fatal("no AIMD steps recorded")
	}
	modelCheckTrace(t, sr.QoSTrace, qos)
	if last := sr.QoSTrace[len(sr.QoSTrace)-1]; sr.FinalRebuildRate != last.RateAfter {
		t.Errorf("FinalRebuildRate = %v, want last step's %v", sr.FinalRebuildRate, last.RateAfter)
	}
	if sr.ThrottleDelay <= 0 {
		t.Error("throttle injected no delay despite pacing the rebuild")
	}
}

// TestServingQoSConcurrent runs the QoS serving scenario from several
// goroutines at once (the sweep-worker pattern experiments use) under
// -race, model-checks every trace, and requires bit-identical results.
func TestServingQoSConcurrent(t *testing.T) {
	qos := QoSConfig{SLOp99Ms: 100, InitialRate: 10, MaxRate: 50}
	const workers = 8
	results := make([]*Result, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			code := codes.MustNew("tip", 13)
			res, err := Run(servingQoSConfig(code, &qos), genErrors(t, code, 24, 512, 5))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	ref := results[0]
	if ref == nil {
		t.Fatal("reference run failed")
	}
	modelCheckTrace(t, ref.Serving.QoSTrace, qos)
	for i, res := range results[1:] {
		if res == nil {
			t.Fatalf("run %d failed", i+1)
		}
		a, b := ref.Serving, res.Serving
		if a.Ops() != b.Ops() || a.SumMs != b.SumMs || a.Hits != b.Hits ||
			a.DiskReads != b.DiskReads || a.DiskWrites != b.DiskWrites ||
			a.ThrottleDelay != b.ThrottleDelay ||
			a.FinalRebuildRate != b.FinalRebuildRate ||
			len(a.QoSTrace) != len(b.QoSTrace) ||
			ref.Makespan != res.Makespan {
			t.Fatalf("run %d diverged from run 0: %+v vs %+v", i+1, b, a)
		}
		for j := range a.QoSTrace {
			if a.QoSTrace[j] != b.QoSTrace[j] {
				t.Fatalf("run %d: step %d diverged: %+v vs %+v", i+1, j, b.QoSTrace[j], a.QoSTrace[j])
			}
		}
	}
}
