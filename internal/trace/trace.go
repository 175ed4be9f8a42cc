// Package trace generates and (de)serializes the synthetic partial
// stripe error workloads of the paper's evaluation: groups of contiguous
// chunk errors on a disk, with sizes drawn from a configurable
// distribution (uniform over [1, p-1] chunks in the paper, mean half a
// stripe).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"fbf/internal/codes"
	"fbf/internal/core"
)

// SizeDist selects the distribution of partial-stripe error sizes.
type SizeDist uint8

const (
	// SizeUniform draws sizes uniformly from [1, p-1] — the paper's
	// distribution, with mean (p-1)/2 chunks ("half size of the stripe").
	SizeUniform SizeDist = iota
	// SizeFixed uses Config.FixedSize for every group.
	SizeFixed
	// SizeGeometric draws sizes geometrically (small errors frequent,
	// footnote 2 of the paper: "FBF can be proved under other
	// distributions as well"), clamped to [1, p-1].
	SizeGeometric
)

// String names the distribution.
func (d SizeDist) String() string {
	switch d {
	case SizeUniform:
		return "uniform"
	case SizeFixed:
		return "fixed"
	case SizeGeometric:
		return "geometric"
	default:
		return fmt.Sprintf("SizeDist(%d)", uint8(d))
	}
}

// ParseSizeDist converts a name into a SizeDist.
func ParseSizeDist(name string) (SizeDist, error) {
	switch name {
	case "uniform":
		return SizeUniform, nil
	case "fixed":
		return SizeFixed, nil
	case "geometric":
		return SizeGeometric, nil
	default:
		return 0, fmt.Errorf("trace: unknown size distribution %q", name)
	}
}

// Config parameterizes workload generation.
type Config struct {
	Groups  int   // number of partial stripe error groups
	Stripes int   // stripes on the array (errors land on distinct stripes when possible)
	Seed    int64 // RNG seed; equal seeds give equal traces

	// Disk pins every error to one disk (the paper's Figure 3 scenario).
	// When negative, each group picks a disk uniformly at random.
	Disk int

	Dist      SizeDist
	FixedSize int // for SizeFixed

	// Clustered generates errors in spatial bursts, modeling the strong
	// locality of latent sector errors (Bairavasundaram et al.;
	// Schroeder et al. — 20–60% of errors have a neighbour within ten
	// sectors, Section II-C of the paper): with probability
	// clusterAffinity a new group lands within clusterSpread stripes of
	// an earlier one, on the same disk.
	Clustered bool
}

const (
	geoP            = 0.4 // success probability of SizeGeometric
	clusterAffinity = 0.5
	clusterSpread   = 16 // stripes
)

// Generate produces the error groups for a code under the config. No
// two groups share a (stripe, disk) pair: stripes are drawn distinct
// while enough exist, and a pair already taken is redrawn. More groups
// than pairs is an error.
func Generate(code *codes.Code, cfg Config) ([]core.PartialStripeError, error) {
	if cfg.Groups <= 0 {
		return nil, fmt.Errorf("trace: non-positive group count %d", cfg.Groups)
	}
	if cfg.Stripes <= 0 {
		return nil, fmt.Errorf("trace: non-positive stripe count %d", cfg.Stripes)
	}
	if cfg.Disk >= code.Disks() {
		return nil, fmt.Errorf("trace: disk %d out of range [0,%d)", cfg.Disk, code.Disks())
	}
	pairs := cfg.Stripes
	if cfg.Disk < 0 {
		pairs *= code.Disks()
	}
	if cfg.Groups > pairs {
		return nil, fmt.Errorf("trace: %d groups exceed the %d (stripe, disk) pairs", cfg.Groups, pairs)
	}
	maxSize := code.MaxPartialSize()
	if maxSize > code.Rows() {
		maxSize = code.Rows()
	}
	if cfg.Dist == SizeFixed && (cfg.FixedSize < 1 || cfg.FixedSize > maxSize) {
		return nil, fmt.Errorf("trace: fixed size %d out of range [1,%d]", cfg.FixedSize, maxSize)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := rng.Perm(cfg.Stripes)
	used := make(map[[2]int]bool, cfg.Groups)
	type anchor struct{ stripe, disk int }
	var anchors []anchor
	out := make([]core.PartialStripeError, 0, cfg.Groups)
	for g := 0; g < cfg.Groups; g++ {
		var stripe, disk int
		placed := false
		if cfg.Clustered && len(anchors) > 0 && rng.Float64() < clusterAffinity {
			// Burst near an earlier error: same disk, nearby stripe.
			for attempt := 0; attempt < 8; attempt++ {
				a := anchors[rng.Intn(len(anchors))]
				s := a.stripe + rng.Intn(2*clusterSpread+1) - clusterSpread
				if s < 0 {
					s = 0
				}
				if s >= cfg.Stripes {
					s = cfg.Stripes - 1
				}
				if !used[[2]int{s, a.disk}] {
					stripe, disk, placed = s, a.disk, true
					break
				}
			}
		}
		if !placed {
			if g < len(perm) {
				stripe = perm[g]
			} else {
				stripe = rng.Intn(cfg.Stripes)
			}
			disk = cfg.Disk
			if disk < 0 {
				disk = rng.Intn(code.Disks())
			}
			// Only a burst, or a group past the permutation, can have
			// taken the pair.
			for (cfg.Clustered || g >= len(perm)) && used[[2]int{stripe, disk}] {
				stripe = rng.Intn(cfg.Stripes)
				if cfg.Disk < 0 {
					disk = rng.Intn(code.Disks())
				}
			}
			anchors = append(anchors, anchor{stripe: stripe, disk: disk})
		}
		used[[2]int{stripe, disk}] = true
		var size int
		switch cfg.Dist {
		case SizeUniform:
			size = 1 + rng.Intn(maxSize)
		case SizeFixed:
			size = cfg.FixedSize
		case SizeGeometric:
			size = 1
			for size < maxSize && rng.Float64() > geoP {
				size++
			}
		default:
			return nil, fmt.Errorf("trace: invalid size distribution %d", cfg.Dist)
		}
		row := 0
		if span := code.Rows() - size; span > 0 {
			row = rng.Intn(span + 1)
		}
		e := core.PartialStripeError{Stripe: stripe, Disk: disk, Row: row, Size: size}
		if err := e.Validate(code); err != nil {
			return nil, fmt.Errorf("trace: generated invalid error: %w", err)
		}
		out = append(out, e)
	}
	return out, nil
}

// WriteCSV serializes errors as "stripe,disk,row,size" lines with a
// header.
func WriteCSV(w io.Writer, errors []core.PartialStripeError) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "stripe,disk,row,size"); err != nil {
		return err
	}
	for _, e := range errors {
		if _, err := fmt.Fprintf(bw, "%d,%d,%d,%d\n", e.Stripe, e.Disk, e.Row, e.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses the format written by WriteCSV.
func ReadCSV(r io.Reader) ([]core.PartialStripeError, error) {
	sc := bufio.NewScanner(r)
	var out []core.PartialStripeError
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if line == 1 && strings.HasPrefix(text, "stripe") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("trace: line %d: want 4 fields, got %d", line, len(parts))
		}
		var vals [4]int
		for i, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return nil, fmt.Errorf("trace: line %d field %d: %w", line, i+1, err)
			}
			vals[i] = v
		}
		out = append(out, core.PartialStripeError{Stripe: vals[0], Disk: vals[1], Row: vals[2], Size: vals[3]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
