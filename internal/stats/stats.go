// Package stats provides the small statistical helpers the experiment
// harness reports with: fixed-boundary histograms and the
// improvement/gain ratios of the paper's tables.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram counts observations into fixed bucket boundaries:
// bucket i holds values in (bounds[i-1], bounds[i]]; an implicit last
// bucket catches everything above the final bound.
type Histogram struct {
	bounds []float64
	counts []uint64
	total  uint64
}

// LogBounds returns geometrically spaced bucket bounds for latency
// histograms: lo, lo*factor, lo*factor^2, ... until the first bound at
// or above hi. Quantiles read from such a histogram are upper bounds
// with a worst-case relative error of factor-1, which is what the
// storage engine's latency histograms (store.Instrumented) use for
// percentiles spanning microseconds to seconds.
func LogBounds(lo, hi, factor float64) ([]float64, error) {
	if !(lo > 0) || !(hi > lo) {
		return nil, fmt.Errorf("stats: log bounds need 0 < lo < hi, got [%g, %g]", lo, hi)
	}
	if !(factor > 1) {
		return nil, fmt.Errorf("stats: log bounds growth factor %g not above 1", factor)
	}
	var bounds []float64
	for b := lo; ; b *= factor {
		bounds = append(bounds, b)
		if b >= hi {
			return bounds, nil
		}
	}
}

// NewHistogram builds a histogram over strictly increasing bounds.
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("stats: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("stats: histogram bounds not increasing at %d", i)
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(bounds)+1)}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	for i, b := range h.bounds {
		if x <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Total returns the observation count.
func (h *Histogram) Total() uint64 { return h.total }

// Bounds returns a copy of the bucket boundaries.
func (h *Histogram) Bounds() []float64 {
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// Counts returns a copy of the bucket counts (len(bounds)+1 entries; the
// last is the overflow bucket).
func (h *Histogram) Counts() []uint64 {
	out := make([]uint64, len(h.counts))
	copy(out, h.counts)
	return out
}

// Quantile returns an upper bound for the q-quantile based on bucket
// boundaries; the overflow bucket reports +Inf. q is clamped to [0, 1]
// (NaN included): q <= 0 reports the first non-empty bucket's bound and
// q >= 1 the last non-empty bucket's. With no observations it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if !(q > 0) { // also catches NaN
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// String renders the non-empty buckets, or "empty" with no
// observations (so log lines never silently print a blank).
func (h *Histogram) String() string {
	if h.total == 0 {
		return "empty"
	}
	var sb strings.Builder
	prev := math.Inf(-1)
	for i, c := range h.counts {
		if c == 0 {
			if i < len(h.bounds) {
				prev = h.bounds[i]
			}
			continue
		}
		upper := math.Inf(1)
		if i < len(h.bounds) {
			upper = h.bounds[i]
		}
		fmt.Fprintf(&sb, "(%g,%g]:%d ", prev, upper, c)
		prev = upper
	}
	return strings.TrimSpace(sb.String())
}

// Improvement returns the relative improvement of measured over
// baseline, as a fraction: (baseline - measured) / baseline for
// lower-is-better metrics. Use Gain for higher-is-better metrics.
func Improvement(baseline, measured float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - measured) / baseline
}

// Gain returns measured/baseline - 1 for higher-is-better metrics (a
// gain of 1.47 means "2.47x the baseline" in the paper's phrasing).
func Gain(baseline, measured float64) float64 {
	if baseline == 0 {
		return 0
	}
	return measured/baseline - 1
}
