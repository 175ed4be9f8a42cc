package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogram(t *testing.T) {
	h, err := NewHistogram([]float64{1, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.5, 1, 5, 50, 500} {
		h.Add(x)
	}
	counts := h.Counts()
	want := []uint64{2, 1, 1, 1} // (−inf,1], (1,10], (10,100], overflow
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], want[i])
		}
	}
	if h.Total() != 5 {
		t.Errorf("Total = %d", h.Total())
	}
	if q := h.Quantile(0.5); q != 10 {
		t.Errorf("median bound = %f, want 10", q)
	}
	if q := h.Quantile(1.0); !math.IsInf(q, 1) {
		t.Errorf("max quantile = %f, want +Inf", q)
	}
	if h.String() == "" {
		t.Error("empty String")
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := NewHistogram([]float64{1, 1}); err == nil {
		t.Error("non-increasing bounds accepted")
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h, _ := NewHistogram([]float64{1})
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

func TestImprovementAndGain(t *testing.T) {
	if got := Improvement(10, 8); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Improvement = %f", got)
	}
	if got := Improvement(0, 8); got != 0 {
		t.Errorf("Improvement with zero baseline = %f", got)
	}
	if got := Gain(0.2, 0.494); math.Abs(got-1.47) > 1e-9 {
		t.Errorf("Gain = %f", got)
	}
	if got := Gain(0, 1); got != 0 {
		t.Errorf("Gain with zero baseline = %f", got)
	}
}

func TestHistogramBounds(t *testing.T) {
	h, _ := NewHistogram([]float64{1, 5})
	b := h.Bounds()
	if len(b) != 2 || b[0] != 1 || b[1] != 5 {
		t.Fatalf("Bounds = %v", b)
	}
	b[0] = 99 // must be a copy
	if h.Bounds()[0] != 1 {
		t.Fatal("Bounds returned backing store")
	}
}

func TestHistogramStringEmpty(t *testing.T) {
	h, _ := NewHistogram([]float64{1})
	if got := h.String(); got != "empty" {
		t.Fatalf("empty String() = %q", got)
	}
	h.Add(0.5)
	if got := h.String(); got == "empty" || got == "" {
		t.Fatalf("non-empty String() = %q", got)
	}
}

// bucketUpperBound returns the upper bound of the bucket x falls in
// (the overflow bucket reports +Inf) — the value Quantile is specified
// to report for any quantile whose exact order statistic is x.
func bucketUpperBound(bounds []float64, x float64) float64 {
	for _, b := range bounds {
		if x <= b {
			return b
		}
	}
	return math.Inf(1)
}

// TestQuantileMatchesSortedSlice cross-checks Histogram.Quantile
// against exact order statistics on random inputs: for every q, the
// reported bound must be the upper bound of the bucket holding the
// exact sorted-slice quantile ceil(q*n). This is the contract every
// percentile read from a Histogram rests on.
func TestQuantileMatchesSortedSlice(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bounds, err := LogBounds(0.25, 1e4, 1+0.05+rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHistogram(bounds)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + rng.Intn(400)
		xs := make([]float64, n)
		for i := range xs {
			// Log-uniform over the bound range, with excursions past both
			// ends to exercise the first and overflow buckets.
			xs[i] = 0.1 * math.Pow(10, rng.Float64()*6)
			h.Add(xs[i])
		}
		sort.Float64s(xs)
		for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			exact := xs[rank-1]
			want := bucketUpperBound(bounds, exact)
			got := h.Quantile(q)
			if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				t.Errorf("seed %d n %d q %v: Quantile = %v, exact %v lies in bucket bounded by %v", seed, n, q, got, exact, want)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

func TestLogBounds(t *testing.T) {
	b, err := LogBounds(0.25, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 0.25 {
		t.Fatalf("first bound %v", b[0])
	}
	if last := b[len(b)-1]; last < 1000 {
		t.Fatalf("last bound %v below hi", last)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not increasing at %d: %v", i, b)
		}
	}
	// LogBounds output must be accepted by NewHistogram verbatim.
	if _, err := NewHistogram(b); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][3]float64{{0, 10, 2}, {1, 1, 2}, {5, 1, 2}, {1, 10, 1}, {1, 10, 0.5}} {
		if _, err := LogBounds(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("LogBounds(%v) accepted", bad)
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h, _ := NewHistogram([]float64{1, 5, 10})
	h.Add(0.5) // bucket (-inf,1]
	h.Add(7)   // bucket (5,10]
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1},  // clamped: first non-empty bucket
		{-3, 1}, // clamped below
		{math.NaN(), 1},
		{0.5, 1},
		{1, 10}, // last non-empty bucket
		{2, 10}, // clamped above
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Overflow bucket reports +Inf.
	h.Add(50)
	if got := h.Quantile(1); !math.IsInf(got, 1) {
		t.Errorf("Quantile(1) with overflow = %v, want +Inf", got)
	}
	// Single-bucket histogram.
	s, _ := NewHistogram([]float64{1})
	s.Add(0.1)
	if got := s.Quantile(0.5); got != 1 {
		t.Errorf("single-bucket Quantile = %v", got)
	}
}
