// Package workload generates deterministic foreground request streams
// for the serving experiments: an open-loop arrival process at a
// configurable client rate over a YCSB-style read/write mix with
// Zipf-skewed stripe popularity and an optional hot set (the stripes
// under repair, modeling the spatial locality of traffic around failing
// regions).
//
// Determinism is the package's contract. Every draw comes from one
// seeded RNG, so a Config reproduces the identical operation stream on
// any host at any sweep parallelism. Arrival timestamps are computed
// arithmetically from Rate without consuming randomness, so two
// generators that differ only in Rate produce byte-identical key and
// kind streams — only the timestamps compress. That is what makes a
// latency/throughput frontier comparable across client rates: every
// rate serves exactly the same requests, faster.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"fbf/internal/grid"
	"fbf/internal/sim"
)

// Kind is the operation type.
type Kind uint8

const (
	// Read fetches one chunk.
	Read Kind = iota
	// Write updates one data chunk with a parity read-modify-write.
	Write
)

// String names the kind.
func (k Kind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Op is one foreground operation.
type Op struct {
	Seq    int      // 0-based ordinal in the stream
	At     sim.Time // open-loop arrival time
	Kind   Kind
	Stripe int
	Cell   grid.Coord
}

// Config parameterizes a stream.
type Config struct {
	Ops     int          // total operations to generate
	Rate    float64      // arrivals per second of simulated time (open loop)
	Stripes int          // stripe-address space
	Cells   []grid.Coord // candidate cells within a stripe (typically the layout's data cells)

	ZipfS     float64 // stripe-popularity skew; <= 1 means uniform
	WriteFrac float64 // fraction of operations that are writes, [0, 1]

	// HotStripes is an optional hot set (e.g. the stripes with partial
	// stripe errors); each operation lands on a uniformly drawn hot
	// stripe with probability HotFrac, and on the Zipf/uniform-popular
	// stripe otherwise.
	HotStripes []int
	HotFrac    float64

	Seed int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Ops < 0:
		return fmt.Errorf("workload: negative op count %d", c.Ops)
	case !(c.Rate > 0):
		return fmt.Errorf("workload: non-positive rate %v ops/sec", c.Rate)
	case c.Stripes <= 0:
		return fmt.Errorf("workload: non-positive stripe count %d", c.Stripes)
	case len(c.Cells) == 0:
		return fmt.Errorf("workload: no candidate cells")
	case c.WriteFrac < 0 || c.WriteFrac > 1:
		return fmt.Errorf("workload: write fraction %v outside [0, 1]", c.WriteFrac)
	case c.HotFrac < 0 || c.HotFrac > 1:
		return fmt.Errorf("workload: hot fraction %v outside [0, 1]", c.HotFrac)
	case c.HotFrac > 0 && len(c.HotStripes) == 0:
		return fmt.Errorf("workload: hot fraction %v with no hot stripes", c.HotFrac)
	case c.ZipfS > 1 && c.Stripes < 2:
		return fmt.Errorf("workload: Zipf-skewed popularity needs at least 2 stripes")
	}
	return nil
}

// Generator produces the operation stream one Op at a time.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	zipf *rand.Zipf
	seq  int
}

// New builds a generator. The same Config always yields the same
// stream.
func New(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.ZipfS > 1 {
		g.zipf = rand.NewZipf(g.rng, cfg.ZipfS, 1, uint64(cfg.Stripes-1))
	}
	return g, nil
}

// ArrivalAt returns the open-loop arrival time of operation seq at the
// given rate: (seq+1)/rate seconds, rounded to the nanosecond. Pure
// arithmetic — no randomness — so the key stream is rate-invariant.
func ArrivalAt(seq int, rate float64) sim.Time {
	return sim.Time(math.Round(float64(seq+1) * float64(sim.Second) / rate))
}

// Next returns the next operation, or ok=false when the stream is
// exhausted.
func (g *Generator) Next() (op Op, ok bool) {
	if g.seq >= g.cfg.Ops {
		return Op{}, false
	}
	op.Seq = g.seq
	op.At = ArrivalAt(g.seq, g.cfg.Rate)
	g.seq++

	// Draw order is fixed (kind, placement, stripe, cell) so streams
	// with the same seed stay aligned draw for draw.
	if g.cfg.WriteFrac > 0 && g.rng.Float64() < g.cfg.WriteFrac {
		op.Kind = Write
	}
	hot := false
	if g.cfg.HotFrac > 0 {
		hot = g.rng.Float64() < g.cfg.HotFrac
	}
	switch {
	case hot:
		op.Stripe = g.cfg.HotStripes[g.rng.Intn(len(g.cfg.HotStripes))]
	case g.zipf != nil:
		op.Stripe = int(g.zipf.Uint64())
	default:
		op.Stripe = g.rng.Intn(g.cfg.Stripes)
	}
	op.Cell = g.cfg.Cells[g.rng.Intn(len(g.cfg.Cells))]
	return op, true
}

// ZipfPMF returns the analytic probability mass function of the
// generator's stripe-popularity distribution with skew s over n
// stripes: P(k) proportional to 1/(1+k)^s, the distribution
// math/rand's Zipf sampler draws from (v = 1). The workload tests
// chi-square the generated frequencies against it.
func ZipfPMF(s float64, n int) []float64 {
	pmf := make([]float64, n)
	var sum float64
	for k := range pmf {
		pmf[k] = math.Pow(1+float64(k), -s)
		sum += pmf[k]
	}
	for k := range pmf {
		pmf[k] /= sum
	}
	return pmf
}
