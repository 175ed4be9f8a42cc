// Package codes implements the XOR-based triple-disk-failure-tolerant
// (3DFT) erasure-code layouts evaluated in the FBF paper: STAR (p+3
// disks), Triple-Star (p+2 disks), TIP and HDD1 (p+1 disks).
//
// Every code is described purely by its stripe geometry — a grid of
// chunks plus a set of parity chains (cell sets whose XOR is zero). The
// encoder and decoder are derived generically from the chain equations
// with GF(2) Gaussian elimination, so a layout is the single source of
// truth for both data placement and recoverability.
package codes

import (
	"fmt"
	"sort"
	"sync"

	"fbf/internal/chunk"
	"fbf/internal/gf2"
	"fbf/internal/grid"
)

// Code is one concrete erasure-code instance (a code family bound to a
// prime p). Code values are immutable and safe for concurrent use.
type Code struct {
	name   string
	p      int
	layout *grid.Layout
	sys    *gf2.System

	encOnce sync.Once
	enc     encoder
}

// encoder is Encode's program over the stripe's own cells: clear the
// parity cells, then apply ops in order, cell Dst ^= cell Src.
type encoder struct {
	parity []int
	ops    []gf2.RowOp
}

// build wraps a layout's chain equations into a Code. It fails if the
// chains do not uniquely determine every parity cell from the data cells.
func build(name string, p int, layout *grid.Layout) (*Code, error) {
	c := &Code{name: name, p: p, layout: layout}
	c.sys = gf2.NewSystem(layout.Cells())
	for _, ch := range layout.Chains() {
		eq := make([]int, len(ch.Cells))
		for i, cell := range ch.Cells {
			eq[i] = c.CellIndex(cell)
		}
		c.sys.AddEquation(eq)
	}
	parity := layout.ParityCells()
	unknowns := make([]int, len(parity))
	for i, cell := range parity {
		unknowns[i] = c.CellIndex(cell)
	}
	if _, unsolved := c.sys.Solve(unknowns); len(unsolved) > 0 {
		return nil, fmt.Errorf("codes: %s(p=%d): %d parity cells undetermined by chain equations", name, p, len(unsolved))
	}
	return c, nil
}

// encoder builds Encode's program once per Code: the decode schedule of
// the parity cells' erasure, replayed with each parity cell as the
// buffer of the chain whose row ends as that cell (Row maps the pivot
// chains one-to-one onto the parity cells). A chain's buffer starts as
// its data cells' XOR, so each pivot chain's data cells are folded
// into it before the row additions run; the spare chains, if
// a layout has any, only receive additions, and Encode leaves them out.
func (c *Code) encoder() *encoder {
	c.encOnce.Do(func() {
		d, err := c.DecodeSchedule(c.layout.ParityCells())
		if err != nil || len(d.Unsolved) > 0 {
			panic(fmt.Sprintf("codes: %v: parity cells undetermined: %v", c, err))
		}
		cellOf := make(map[int]int, len(d.Row)) // pivot chain -> parity cell
		for cell, row := range d.Row {
			cellOf[row] = c.CellIndex(cell)
			c.enc.parity = append(c.enc.parity, c.CellIndex(cell))
		}
		sort.Ints(c.enc.parity)
		for i, ch := range c.layout.Chains() {
			dst, ok := cellOf[i]
			if !ok {
				continue
			}
			for _, cell := range ch.Cells {
				if !c.layout.IsParity(cell) {
					c.enc.ops = append(c.enc.ops, gf2.RowOp{Dst: dst, Src: c.CellIndex(cell)})
				}
			}
		}
		for _, op := range d.Ops {
			if dst, ok := cellOf[op.Dst]; ok {
				c.enc.ops = append(c.enc.ops, gf2.RowOp{Dst: dst, Src: cellOf[op.Src]})
			}
		}
	})
	return &c.enc
}

// Name returns the code family name ("star", "triplestar", "tip",
// "hdd1").
func (c *Code) Name() string { return c.name }

// P returns the prime parameter.
func (c *Code) P() int { return c.p }

// Disks returns the number of disks (grid columns).
func (c *Code) Disks() int { return c.layout.Cols() }

// Rows returns the number of chunk rows per stripe.
func (c *Code) Rows() int { return c.layout.Rows() }

// Layout returns the stripe geometry.
func (c *Code) Layout() *grid.Layout { return c.layout }

// String renders the code as "name(p=..)".
func (c *Code) String() string { return fmt.Sprintf("%s(p=%d)", c.name, c.p) }

// CellIndex maps a coordinate to a dense cell index (row-major).
func (c *Code) CellIndex(coord grid.Coord) int {
	return coord.Row*c.layout.Cols() + coord.Col
}

// CoordOf is the inverse of CellIndex.
func (c *Code) CoordOf(idx int) grid.Coord {
	return grid.Coord{Row: idx / c.layout.Cols(), Col: idx % c.layout.Cols()}
}

// Stripe holds the chunk contents of one stripe, indexed by CellIndex.
type Stripe []chunk.Chunk

// NewStripe allocates a stripe of zeroed chunks with the given chunk
// size.
func (c *Code) NewStripe(chunkSize int) Stripe {
	s := make(Stripe, c.layout.Cells())
	for i := range s {
		s[i] = chunk.New(chunkSize)
	}
	return s
}

// Encode fills every parity chunk of the stripe from the data chunks.
// Data chunks must already be populated; parity chunks are overwritten.
func (c *Code) Encode(s Stripe) {
	if len(s) != c.layout.Cells() {
		panic(fmt.Sprintf("codes: stripe has %d cells, want %d", len(s), c.layout.Cells()))
	}
	enc := c.encoder()
	for _, idx := range enc.parity {
		clear(s[idx])
	}
	for _, op := range enc.ops {
		chunk.XORInto(s[op.Dst], s[op.Src])
	}
}

// Verify reports whether every parity chain of the stripe XORs to zero.
func (c *Code) Verify(s Stripe) bool {
	acc := chunk.New(len(s[0])) // reused across chains: copy-first, XOR rest
	for i := range c.layout.Chains() {
		ch := &c.layout.Chains()[i]
		for j, cell := range ch.Cells {
			if j == 0 {
				copy(acc, s[c.CellIndex(cell)])
				continue
			}
			chunk.XORInto(acc, s[c.CellIndex(cell)])
		}
		if !acc.IsZero() {
			return false
		}
	}
	return true
}

// RecoveryPlan expresses each lost cell as a XOR of surviving cells, or
// reports that the erasure pattern is unrecoverable.
func (c *Code) RecoveryPlan(lost []grid.Coord) (map[grid.Coord][]grid.Coord, error) {
	plan, bad, err := c.PartialRecoveryPlan(lost)
	if err != nil {
		return nil, err
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("codes: %v: unrecoverable cells %v", c, bad)
	}
	return plan, nil
}

// PartialRecoveryPlan is RecoveryPlan for erasure patterns that may
// exceed the code's tolerance: it expresses every solvable lost cell as
// a XOR of surviving cells and returns the unsolvable cells separately
// instead of failing outright. DecodeSchedule is the same solve with its
// chain-syndrome program; core.RegenerateScheme's decoder fallback takes
// that one.
func (c *Code) PartialRecoveryPlan(lost []grid.Coord) (map[grid.Coord][]grid.Coord, []grid.Coord, error) {
	unknowns, err := c.unknowns(lost)
	if err != nil {
		return nil, nil, err
	}
	sol, unsolved := c.sys.Solve(unknowns)
	plan, bad := c.written(sol, unsolved)
	return plan, bad, nil
}

// DecodeSchedule is one lost set's decode in both its forms: Plan and
// Unsolved are PartialRecoveryPlan's result — every solvable cell
// written out as a XOR of surviving cells — and Ops, Row and Spare are a
// program that evaluates those equations on parity-chain syndromes
// instead of re-summing what they share (gf2.System.Schedule: a sparse
// elimination pivoting where the one behind Plan pivoted, so each buffer
// ends as the same sum of chains). Chains are named by their index in
// Layout().Chains().
//
// Let buffer i start as the XOR of chain i's surviving cells (only chains
// holding a lost cell are ever touched) and apply Ops in order, buffer
// Dst ^= buffer Src. Buffer Row[cell] is then the solvable cell, and
// Plan[cell] is that buffer's sum written out — so a survivor no Plan
// equation lists may be left out of every buffer without changing any
// Row buffer. With every survivor folded in, each Spare buffer (a chain
// whose row ended with no lost cell in it: the redundancy the decode did
// not spend) is zero on a consistent stripe.
type DecodeSchedule struct {
	Plan     map[grid.Coord][]grid.Coord
	Unsolved []grid.Coord // sorted

	Ops   []gf2.RowOp
	Row   map[grid.Coord]int
	Spare []int
}

// DecodeSchedule solves one lost set (duplicates ignored) into its
// written-out equations and the chain-syndrome schedule behind them.
func (c *Code) DecodeSchedule(lost []grid.Coord) (*DecodeSchedule, error) {
	unknowns, err := c.unknowns(lost)
	if err != nil {
		return nil, err
	}
	sol, unsolved := c.sys.Schedule(unknowns)
	d := &DecodeSchedule{Ops: sol.Ops, Row: make(map[grid.Coord]int, len(sol.Row)), Spare: sol.Spare}
	d.Plan, d.Unsolved = c.written(sol, unsolved)
	for idx, row := range sol.Row {
		d.Row[c.CoordOf(idx)] = row
	}
	return d, nil
}

// unknowns maps a lost set to its distinct cell indexes, in order.
func (c *Code) unknowns(lost []grid.Coord) ([]int, error) {
	seen := make(map[grid.Coord]bool, len(lost))
	unknowns := make([]int, 0, len(lost))
	for _, cell := range lost {
		if !c.layout.InBounds(cell) {
			return nil, fmt.Errorf("codes: lost cell %v out of bounds", cell)
		}
		if seen[cell] {
			continue
		}
		seen[cell] = true
		unknowns = append(unknowns, c.CellIndex(cell))
	}
	return unknowns, nil
}

// written is a solution's equations as coordinates, and its unsolved
// cells sorted.
func (c *Code) written(sol *gf2.Solution, unsolved []int) (map[grid.Coord][]grid.Coord, []grid.Coord) {
	plan := make(map[grid.Coord][]grid.Coord, len(sol.Terms))
	for idx, terms := range sol.Terms {
		coords := make([]grid.Coord, len(terms))
		for i, t := range terms {
			coords[i] = c.CoordOf(t)
		}
		plan[c.CoordOf(idx)] = coords
	}
	var bad []grid.Coord
	for _, u := range unsolved {
		bad = append(bad, c.CoordOf(u))
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i].Less(bad[j]) })
	return plan, bad
}

// Recover reconstructs the lost cells of a stripe in place using the
// generic GF(2) decoder.
func (c *Code) Recover(s Stripe, lost []grid.Coord) error {
	plan, err := c.RecoveryPlan(lost)
	if err != nil {
		return err
	}
	for cell, terms := range plan {
		dst := s[c.CellIndex(cell)]
		clear(dst)
		for _, t := range terms {
			chunk.XORInto(dst, s[c.CellIndex(t)])
		}
	}
	return nil
}

// CanRecoverColumns reports whether the simultaneous loss of the given
// whole disks (columns) is recoverable.
func (c *Code) CanRecoverColumns(cols ...int) bool {
	var lost []int
	for _, col := range cols {
		if col < 0 || col >= c.layout.Cols() {
			return false
		}
		for r := 0; r < c.layout.Rows(); r++ {
			lost = append(lost, c.CellIndex(grid.Coord{Row: r, Col: col}))
		}
	}
	return c.sys.Solvable(lost)
}

// TripleFaultCoverage checks every combination of three distinct columns
// and returns the number of recoverable combinations, the total number
// of combinations, and the failing combinations (nil when fully
// covered).
func (c *Code) TripleFaultCoverage() (ok, total int, failing [][3]int) {
	n := c.layout.Cols()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for d := b + 1; d < n; d++ {
				total++
				if c.CanRecoverColumns(a, b, d) {
					ok++
				} else {
					failing = append(failing, [3]int{a, b, d})
				}
			}
		}
	}
	return ok, total, failing
}

// IsPrime reports whether p is prime (trial division; p is small).
func IsPrime(p int) bool {
	if p < 2 {
		return false
	}
	for d := 2; d*d <= p; d++ {
		if p%d == 0 {
			return false
		}
	}
	return true
}

func requirePrime(name string, p int) error {
	if !IsPrime(p) {
		return fmt.Errorf("codes: %s requires prime p, got %d", name, p)
	}
	if p < 3 {
		return fmt.Errorf("codes: %s requires p >= 3, got %d", name, p)
	}
	return nil
}

// Names lists the registered code family names in stable order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

var registry = map[string]func(p int) (*Code, error){
	"star":       NewSTAR,
	"triplestar": NewTripleStar,
	"tip":        NewTIP,
	"hdd1":       NewHDD1,
}

// New constructs a code by family name.
func New(name string, p int) (*Code, error) {
	ctor, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("codes: unknown code %q (have %v)", name, Names())
	}
	return ctor(p)
}

// MustNew is New that panics on error, for tests and examples with
// compile-time-known parameters.
func MustNew(name string, p int) *Code {
	c, err := New(name, p)
	if err != nil {
		panic(err)
	}
	return c
}

// MaxPartialSize returns p-1, the paper's partial-stripe bound (larger
// errors fall to whole-stripe reconstruction).
func (c *Code) MaxPartialSize() int { return c.p - 1 }

// MaterializeStripe returns a deterministic, fully encoded stripe with
// pseudo-random data contents derived from seed.
func (c *Code) MaterializeStripe(seed int64, chunkSize int) []chunk.Chunk {
	s := c.NewStripe(chunkSize)
	c.MaterializeStripeInto(s, seed)
	return s
}

// MaterializeStripeInto is MaterializeStripe into dst, which may hold
// stale bytes — the RNG overwrites every data byte and Encode
// overwrites every parity byte.
func (c *Code) MaterializeStripeInto(dst []chunk.Chunk, seed int64) {
	fill := chunk.NewFiller(seed)
	for _, cell := range c.layout.DataCells() {
		fill.Fill(dst[c.CellIndex(cell)])
	}
	c.Encode(dst)
}

// RebuildChunk recomputes the lost cell by XOR-ing the chain's other
// members into a fresh chunk.
func (c *Code) RebuildChunk(id grid.ChainID, lost grid.Coord, stripe []chunk.Chunk) (chunk.Chunk, error) {
	acc := chunk.New(len(stripe[0]))
	if err := c.RebuildChunkInto(acc, id, lost, stripe); err != nil {
		return nil, err
	}
	return acc, nil
}

// RebuildChunkInto is RebuildChunk into dst: the first surviving
// member is copied and the rest XORed in, so dst may hold stale bytes.
func (c *Code) RebuildChunkInto(dst chunk.Chunk, id grid.ChainID, lost grid.Coord, stripe []chunk.Chunk) error {
	ch, ok := c.layout.Chain(id)
	if !ok {
		return fmt.Errorf("codes: %v has no chain %v", c, id)
	}
	if !ch.Contains(lost) {
		return fmt.Errorf("codes: chain %v does not contain %v", id, lost)
	}
	first := true
	for _, m := range ch.Cells {
		if m == lost {
			continue
		}
		if first {
			copy(dst, stripe[c.CellIndex(m)])
			first = false
			continue
		}
		chunk.XORInto(dst, stripe[c.CellIndex(m)])
	}
	if first {
		clear(dst)
	}
	return nil
}
