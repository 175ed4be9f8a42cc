package rebuild

import (
	"fmt"
	"math"

	"fbf/internal/sim"
	"fbf/internal/stats"
	"fbf/internal/store"
)

// QoS plumbing for serving runs: an adaptive per-disk token-bucket
// throttle on rebuild I/O, controlled by additive-increase /
// multiplicative-decrease against a foreground p99 latency target.
//
// The bucket is store.Throttle's (store.TokenBucket) on the simulated
// clock: instead of sleeping a goroutine, a reservation returns the
// simulated timestamp at which the gated I/O may issue, and the engine
// schedules the submission there. What store.Throttle fixes at
// construction (the rate), the AIMD controller retunes every decision
// window from the foreground latency histogram.

// The controller's fixed tuning. Rates are rebuild I/Os per second per
// disk.
const (
	qosWindow     = 20 * sim.Millisecond // decision interval
	qosMinSamples = 10                   // foreground completions needed to judge a window
	qosMinRate    = 5                    // floor after decreases
	qosIncrease   = 10                   // additive step per compliant window
	qosDecrease   = 0.5                  // multiplicative factor on an SLO breach
	qosBurst      = 4                    // token-bucket depth in I/Os
)

// QoSConfig parameterizes the adaptive rebuild throttle of a serving
// run. Rates are rebuild I/Os per second per disk.
type QoSConfig struct {
	SLOp99Ms float64 // foreground p99 latency target in ms (required, > 0)

	InitialRate float64 // starting rebuild rate (default 100 IO/s/disk)
	MaxRate     float64 // ceiling after increases (default 400)
}

// withDefaults returns a copy with unset knobs filled in.
func (q QoSConfig) withDefaults() QoSConfig {
	if q.InitialRate == 0 {
		q.InitialRate = 100
	}
	if q.MaxRate == 0 {
		q.MaxRate = 400
	}
	return q
}

// Validate checks the QoS fields, returning a *ConfigError naming the
// offending one. Zero values select defaults and are accepted.
func (q *QoSConfig) Validate() error {
	if !(q.SLOp99Ms > 0) {
		return &ConfigError{Field: "Serving.QoS.SLOp99Ms", Reason: fmt.Sprintf("p99 target %v ms is not positive", q.SLOp99Ms)}
	}
	if q.InitialRate < 0 || q.MaxRate < 0 {
		return &ConfigError{Field: "Serving.QoS", Reason: "negative rate parameter"}
	}
	if d := q.withDefaults(); d.MaxRate < qosMinRate {
		return &ConfigError{Field: "Serving.QoS.MaxRate", Reason: fmt.Sprintf("ceiling %v below the floor %v", d.MaxRate, qosMinRate)}
	}
	return nil
}

// AIMDNext is the pure reference spec of one controller decision: the
// rebuild rate after judging a window at the given rate. A breached
// window multiplies the rate by qosDecrease; a compliant one adds
// qosIncrease; the result clamps to [qosMinRate, MaxRate]. The
// controller's recorded trace is model-checked against this function
// step by step, so any divergence between the running scheduler and the
// spec is a test failure, not a drift.
func AIMDNext(rate float64, breached bool, cfg QoSConfig) float64 {
	if breached {
		rate *= qosDecrease
	} else {
		rate += qosIncrease
	}
	return math.Min(cfg.withDefaults().MaxRate, math.Max(qosMinRate, rate))
}

// AIMDStep records one judged decision window of the running
// controller: the foreground completions observed, the p99 verdict and
// the rate transition. Windows with fewer than qosMinSamples completions
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
	buckets []store.TokenBucket[sim.Time]
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
	return &qosController{cfg: d, rate: d.InitialRate, window: h, buckets: make([]store.TokenBucket[sim.Time], disks)}
}

// observe feeds one foreground completion latency (ms) into the
// current decision window.
func (q *qosController) observe(ms float64) { q.window.Add(ms) }

// tick judges the window ending now. Windows below the sample floor
// keep accumulating into the next interval (a judgment over a handful
// of requests would be noise).
func (q *qosController) tick(now sim.Time) {
	n := q.window.Total()
	if n < qosMinSamples {
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
	at := q.buckets[disk].Reserve(now, 1, q.rate, qosBurst)
	if at > now {
		q.throttleDelay += at - now
	}
	return at
}
