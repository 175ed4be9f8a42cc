package rebuild

import (
	"fmt"
	"math"

	"fbf/internal/sim"
	"fbf/internal/stats"
)

// QoS plumbing for serving runs: an adaptive per-disk token-bucket
// throttle on rebuild I/O, controlled by additive-increase /
// multiplicative-decrease against a foreground p99 latency target.
//
// The shape mirrors store.Throttle — a token bucket refilled at a rate,
// operations that overdraw wait out the deficit — transplanted into the
// simulator: instead of sleeping a goroutine, a reservation returns the
// simulated timestamp at which the gated I/O may issue, and the engine
// schedules the submission there. What store.Throttle fixes at
// construction (the rate), the AIMD controller retunes every decision
// window from the foreground latency histogram.

// QoSConfig parameterizes the adaptive rebuild throttle of a serving
// run. Rates are rebuild I/Os per second per disk.
type QoSConfig struct {
	SLOp99Ms float64 // foreground p99 latency target in ms (required, > 0)

	Window     sim.Time // decision interval (default 20 ms)
	MinSamples int      // foreground completions needed to judge a window (default 10)

	InitialRate float64 // starting rebuild rate (default 100 IO/s/disk)
	MinRate     float64 // floor after decreases (default 5)
	MaxRate     float64 // ceiling after increases (default 400)
	Increase    float64 // additive step per compliant window (default 10)
	Decrease    float64 // multiplicative factor on an SLO breach, in (0,1) (default 0.5)
	Burst       float64 // token-bucket depth in I/Os (default 4)
}

// withDefaults returns a copy with unset knobs filled in.
func (q QoSConfig) withDefaults() QoSConfig {
	if q.Window == 0 {
		q.Window = 20 * sim.Millisecond
	}
	if q.MinSamples == 0 {
		q.MinSamples = 10
	}
	if q.InitialRate == 0 {
		q.InitialRate = 100
	}
	if q.MinRate == 0 {
		q.MinRate = 5
	}
	if q.MaxRate == 0 {
		q.MaxRate = 400
	}
	if q.Increase == 0 {
		q.Increase = 10
	}
	if q.Decrease == 0 {
		q.Decrease = 0.5
	}
	if q.Burst == 0 {
		q.Burst = 4
	}
	return q
}

// Validate checks the QoS fields, returning a *ConfigError naming the
// offending one. Zero values select defaults and are accepted.
func (q *QoSConfig) Validate() error {
	if !(q.SLOp99Ms > 0) {
		return &ConfigError{Field: "Serving.QoS.SLOp99Ms", Reason: fmt.Sprintf("p99 target %v ms is not positive", q.SLOp99Ms)}
	}
	if q.Window < 0 {
		return &ConfigError{Field: "Serving.QoS.Window", Reason: fmt.Sprintf("negative decision window %v", q.Window)}
	}
	if q.MinSamples < 0 {
		return &ConfigError{Field: "Serving.QoS.MinSamples", Reason: fmt.Sprintf("negative sample floor %d", q.MinSamples)}
	}
	if q.InitialRate < 0 || q.MinRate < 0 || q.MaxRate < 0 || q.Increase < 0 || q.Burst < 0 {
		return &ConfigError{Field: "Serving.QoS", Reason: "negative rate parameter"}
	}
	d := q.withDefaults()
	if d.MinRate > d.MaxRate {
		return &ConfigError{Field: "Serving.QoS.MinRate", Reason: fmt.Sprintf("floor %v above ceiling %v", d.MinRate, d.MaxRate)}
	}
	if q.Decrease != 0 && (q.Decrease <= 0 || q.Decrease >= 1) {
		return &ConfigError{Field: "Serving.QoS.Decrease", Reason: fmt.Sprintf("multiplicative factor %v outside (0, 1)", q.Decrease)}
	}
	return nil
}

// AIMDNext is the pure reference spec of one controller decision: the
// rebuild rate after judging a window at the given rate. A breached
// window multiplies the rate by Decrease; a compliant one adds
// Increase; the result clamps to [MinRate, MaxRate]. The controller's
// recorded trace is model-checked against this function step by step,
// so any divergence between the running scheduler and the spec is a
// test failure, not a drift.
func AIMDNext(rate float64, breached bool, cfg QoSConfig) float64 {
	cfg = cfg.withDefaults()
	if breached {
		rate *= cfg.Decrease
	} else {
		rate += cfg.Increase
	}
	return math.Min(cfg.MaxRate, math.Max(cfg.MinRate, rate))
}

// AIMDStep records one judged decision window of the running
// controller: the foreground completions observed, the p99 verdict and
// the rate transition. Windows with fewer than MinSamples completions
// are not judged and record no step.
type AIMDStep struct {
	At         sim.Time // decision time
	WindowOps  uint64   // foreground completions judged
	P99Ms      float64  // window p99 (histogram upper bound, ms)
	Breached   bool     // P99Ms > SLOp99Ms
	RateBefore float64
	RateAfter  float64
}

// qosWindowBoundsMs buckets the controller's per-window latency
// histogram: geometric from a quarter millisecond (a cache hit) to a
// minute (deep saturation), ~12% resolution.
var qosWindowBoundsMs = mustLogBounds(0.25, 60_000, 1.12)

func mustLogBounds(lo, hi, factor float64) []float64 {
	b, err := stats.LogBounds(lo, hi, factor)
	if err != nil {
		panic(fmt.Sprintf("rebuild: log bounds: %v", err)) // fixed valid parameters
	}
	return b
}

// qosController runs the AIMD loop: foreground completions feed the
// window histogram, tick judges it against the SLO and retunes the
// rate, and gate paces rebuild I/O through per-disk token buckets at
// the current rate.
type qosController struct {
	cfg     QoSConfig // defaulted copy
	rate    float64
	window  *stats.Histogram
	buckets []tokenBucket
	steps   []AIMDStep

	throttleDelay sim.Time // total rebuild issue delay injected
}

// newQoSController builds a controller for an array of the given width.
func newQoSController(cfg QoSConfig, disks int) *qosController {
	d := cfg.withDefaults()
	h, err := stats.NewHistogram(qosWindowBoundsMs)
	if err != nil {
		panic(fmt.Sprintf("rebuild: qos window histogram: %v", err)) // fixed valid bounds
	}
	return &qosController{cfg: d, rate: d.InitialRate, window: h, buckets: make([]tokenBucket, disks)}
}

// observe feeds one foreground completion latency (ms) into the
// current decision window.
func (q *qosController) observe(ms float64) { q.window.Add(ms) }

// tick judges the window ending now. Windows below the sample floor
// keep accumulating into the next interval (a judgment over a handful
// of requests would be noise).
func (q *qosController) tick(now sim.Time) {
	n := q.window.Total()
	if n < uint64(q.cfg.MinSamples) {
		return
	}
	p99 := q.window.Quantile(0.99)
	breached := p99 > q.cfg.SLOp99Ms
	next := AIMDNext(q.rate, breached, q.cfg)
	q.steps = append(q.steps, AIMDStep{
		At: now, WindowOps: n, P99Ms: p99, Breached: breached,
		RateBefore: q.rate, RateAfter: next,
	})
	q.rate = next
	q.window.Reset()
}

// gate reserves one rebuild I/O slot on the given disk's bucket and
// returns the simulated time at which the I/O may issue (now when a
// token is available). The delay, if any, is accounted.
func (q *qosController) gate(disk int, now sim.Time) sim.Time {
	if disk < 0 || disk >= len(q.buckets) {
		return now
	}
	at := q.buckets[disk].reserve(now, q.rate, q.cfg.Burst)
	if at > now {
		q.throttleDelay += at - now
	}
	return at
}

// tokenBucket paces one disk's rebuild I/O in simulated time. Unlike
// store.Throttle's wall-clock bucket (which sleeps the caller),
// reserve never blocks: an overdraw books the reservation in the
// future and advances the bucket clock there, so queued reservations
// space themselves 1/rate apart deterministically.
type tokenBucket struct {
	tokens float64
	last   sim.Time
	primed bool
}

// reserve takes one token at the given rate (tokens/sec, capped at
// burst) and returns the issue timestamp.
func (b *tokenBucket) reserve(now sim.Time, rate, burst float64) sim.Time {
	if !b.primed {
		b.primed = true
		b.tokens = burst
		b.last = now
	}
	if now > b.last {
		b.tokens += float64(now-b.last) * rate / float64(sim.Second)
		if b.tokens > burst {
			b.tokens = burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		if b.last > now {
			return b.last
		}
		return now
	}
	if !(rate > 0) {
		// A zero rate would never repay the deficit; issue immediately
		// rather than wedging the rebuild (MinRate keeps real
		// controllers away from zero).
		return now
	}
	wait := (1 - b.tokens) / rate * float64(sim.Second)
	at := b.last + sim.Time(math.Ceil(wait))
	if at < now {
		at = now
	}
	b.tokens = 0
	b.last = at
	return at
}
