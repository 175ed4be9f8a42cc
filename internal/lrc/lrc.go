// Package lrc implements an Azure-style Local Reconstruction Code
// (Huang et al., USENIX ATC'12 — reference [2] of the FBF paper) as a
// Reed-Solomon-based counterpart to the XOR 3DFT codes, realizing the
// paper's footnote 3: "Reed Solomon based codes like Local
// Reconstruction Codes can be applied with FBF as well, by
// investigating relationships among global/local parity chains."
//
// LRC(k, l, g) protects k data symbols with l local XOR parities (one
// per group of k/l data symbols) and g Reed-Solomon global parities
// over GF(256). A stripe is rows × (k+l+g) chunks where every row is an
// independent codeword; column j is disk j.
//
// Chain mapping onto the FBF machinery: local chains are exposed as
// Horizontal, the first global parity's chain as Diagonal and the
// second's as AntiDiagonal, so the paper's direction-looping scheme
// generator walks local and global chains exactly as it walks the three
// XOR chain directions. Every lost chunk prefers its (short) local
// chain and falls back to a global chain — the local/global
// relationship the footnote points to.
package lrc

import (
	"fmt"

	"fbf/internal/chunk"
	"fbf/internal/core"
	"fbf/internal/gf256"
	"fbf/internal/grid"
)

// Code is one LRC instance. Values are immutable and safe for
// concurrent use.
type Code struct {
	k, l, g int
	rows    int
	layout  *grid.Layout
	// coeffs holds, per chain, the GF(256) coefficient of each cell in
	// the chain (aligned with Chain.Cells). Local chains are all-ones.
	coeffs map[grid.ChainID][]byte
	sys    *gf256.System
}

// New constructs LRC(k, l, g) with the given stripe height. Constraints:
// k % l == 0, l >= 1, 1 <= g <= 2 (the two global chains map to the two
// remaining FBF chain directions; Azure uses g = 2).
func New(k, l, g, rows int) (*Code, error) {
	switch {
	case k < 2:
		return nil, fmt.Errorf("lrc: need k >= 2, got %d", k)
	case l < 1 || k%l != 0:
		return nil, fmt.Errorf("lrc: l must divide k (k=%d, l=%d)", k, l)
	case g < 1 || g > 2:
		return nil, fmt.Errorf("lrc: need 1 <= g <= 2, got %d", g)
	case rows < 1:
		return nil, fmt.Errorf("lrc: need rows >= 1, got %d", rows)
	case k+l+g > 255:
		return nil, fmt.Errorf("lrc: k+l+g = %d exceeds GF(256) limits", k+l+g)
	}
	c := &Code{k: k, l: l, g: g, rows: rows, coeffs: map[grid.ChainID][]byte{}}
	n := k + l + g
	group := k / l

	var parity []grid.Coord
	var chains []grid.Chain
	for r := 0; r < rows; r++ {
		for j := 0; j < l+g; j++ {
			parity = append(parity, grid.Coord{Row: r, Col: k + j})
		}
		// Local chains: group j of row r, plus its local parity. All
		// coefficients are 1 (XOR), Azure-style.
		for j := 0; j < l; j++ {
			cells := make([]grid.Coord, 0, group+1)
			co := make([]byte, 0, group+1)
			for d := j * group; d < (j+1)*group; d++ {
				cells = append(cells, grid.Coord{Row: r, Col: d})
				co = append(co, 1)
			}
			cells = append(cells, grid.Coord{Row: r, Col: k + j})
			co = append(co, 1)
			ch := grid.Chain{Kind: grid.Horizontal, Index: r*l + j, Cells: cells}
			chains = append(chains, ch)
			c.coeffs[ch.ID()] = co
		}
		// Global chains: all data cells of the row with Vandermonde
		// coefficients alpha_d^(i+1), plus the global parity cell. The
		// exponent starts at 1 so global equations stay independent of
		// the locals (whose sum is the all-ones row).
		for i := 0; i < g; i++ {
			cells := make([]grid.Coord, 0, k+1)
			co := make([]byte, 0, k+1)
			for d := 0; d < k; d++ {
				cells = append(cells, grid.Coord{Row: r, Col: d})
				co = append(co, gf256.Exp(d*(i+1)))
			}
			cells = append(cells, grid.Coord{Row: r, Col: k + l + i})
			co = append(co, 1)
			kind := grid.Diagonal
			if i == 1 {
				kind = grid.AntiDiagonal
			}
			ch := grid.Chain{Kind: kind, Index: r, Cells: cells}
			chains = append(chains, ch)
			c.coeffs[ch.ID()] = co
		}
	}
	layout, err := grid.NewLayout(rows, n, parity, chains)
	if err != nil {
		return nil, err
	}
	c.layout = layout

	c.sys = gf256.NewSystem(rows * n)
	for _, ch := range layout.Chains() {
		co := c.coeffs[ch.ID()]
		terms := make([]gf256.Term, len(ch.Cells))
		for i, cell := range ch.Cells {
			terms[i] = gf256.Term{Coeff: co[i], Symbol: c.CellIndex(cell)}
		}
		c.sys.AddEquation(terms)
	}
	return c, nil
}

// MustNew is New that panics on error.
func MustNew(k, l, g, rows int) *Code {
	c, err := New(k, l, g, rows)
	if err != nil {
		panic(err)
	}
	return c
}

// K returns the data symbols per codeword.
func (c *Code) K() int { return c.k }

// L returns the number of local parity groups.
func (c *Code) L() int { return c.l }

// G returns the number of global parities.
func (c *Code) G() int { return c.g }

// Name returns "lrc".
func (c *Code) Name() string { return "lrc" }

// String renders the code as LRC(k,l,g).
func (c *Code) String() string { return fmt.Sprintf("lrc(%d,%d,%d)", c.k, c.l, c.g) }

// Layout implements core.Geometry.
func (c *Code) Layout() *grid.Layout { return c.layout }

// Disks implements core.Geometry.
func (c *Code) Disks() int { return c.layout.Cols() }

// Rows implements core.Geometry.
func (c *Code) Rows() int { return c.rows }

// MaxPartialSize implements core.Geometry: any vertical run within a
// stripe is a partial error (rows are independent codewords).
func (c *Code) MaxPartialSize() int { return c.rows }

// CellIndex maps a coordinate to the row-major stripe index.
func (c *Code) CellIndex(coord grid.Coord) int { return core.CellIndex(c.layout, coord) }

// Encode fills the parity chunks of a stripe from its data chunks.
// Stripe slices are indexed by CellIndex.
func (c *Code) Encode(s []chunk.Chunk) {
	if len(s) != c.layout.Cells() {
		panic(fmt.Sprintf("lrc: stripe has %d cells, want %d", len(s), c.layout.Cells()))
	}
	for r := 0; r < c.rows; r++ {
		// Locals: XOR of each group.
		group := c.k / c.l
		for j := 0; j < c.l; j++ {
			dst := s[c.CellIndex(grid.Coord{Row: r, Col: c.k + j})]
			clear(dst)
			for d := j * group; d < (j+1)*group; d++ {
				chunk.XORInto(dst, s[c.CellIndex(grid.Coord{Row: r, Col: d})])
			}
		}
		// Globals: Vandermonde-weighted sums.
		for i := 0; i < c.g; i++ {
			dst := s[c.CellIndex(grid.Coord{Row: r, Col: c.k + c.l + i})]
			clear(dst)
			for d := 0; d < c.k; d++ {
				gf256.MulSlice(gf256.Exp(d*(i+1)), dst, s[c.CellIndex(grid.Coord{Row: r, Col: d})])
			}
		}
	}
}

// Verify reports whether every chain equation of the stripe holds.
func (c *Code) Verify(s []chunk.Chunk) bool {
	acc := chunk.New(len(s[0])) // reused across chains
	for i := range c.layout.Chains() {
		ch := &c.layout.Chains()[i]
		co := c.coeffs[ch.ID()]
		clear(acc)
		for j, cell := range ch.Cells {
			gf256.MulSlice(co[j], acc, s[c.CellIndex(cell)])
		}
		if !acc.IsZero() {
			return false
		}
	}
	return true
}

// Recover reconstructs the lost cells of a stripe in place using the
// generic GF(256) decoder.
func (c *Code) Recover(s []chunk.Chunk, lost []grid.Coord) error {
	unknowns := make([]int, len(lost))
	for i, cell := range lost {
		if !c.layout.InBounds(cell) {
			return fmt.Errorf("lrc: lost cell %v out of bounds", cell)
		}
		unknowns[i] = c.CellIndex(cell)
	}
	sol, unsolved := c.sys.Solve(unknowns)
	if len(unsolved) > 0 {
		return fmt.Errorf("lrc: %v: %d cells unrecoverable", c, len(unsolved))
	}
	for _, cell := range lost {
		dst := s[c.CellIndex(cell)]
		clear(dst)
		for _, term := range sol.Terms[c.CellIndex(cell)] {
			gf256.MulSlice(term.Coeff, dst, s[term.Symbol])
		}
	}
	return nil
}

// CanRecoverColumns reports whether losing the given whole disks is
// recoverable.
func (c *Code) CanRecoverColumns(cols ...int) bool {
	var lost []int
	for _, col := range cols {
		if col < 0 || col >= c.layout.Cols() {
			return false
		}
		for r := 0; r < c.rows; r++ {
			lost = append(lost, c.CellIndex(grid.Coord{Row: r, Col: col}))
		}
	}
	return c.sys.Solvable(lost)
}

// TripleFaultCoverage mirrors codes.Code: it checks every three-column
// combination. Azure's LRC(12,2,2) decodes all of them (it is
// maximally recoverable); smaller configurations may not.
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

// MaterializeStripe returns the stripe MaterializeStripeInto fills, in
// freshly allocated chunks.
func (c *Code) MaterializeStripe(seed int64, chunkSize int) []chunk.Chunk {
	s := make([]chunk.Chunk, c.layout.Cells())
	for i := range s {
		s[i] = chunk.New(chunkSize)
	}
	c.MaterializeStripeInto(s, seed)
	return s
}

// MaterializeStripeInto is MaterializeStripe into dst, which may come
// from a pool un-zeroed — the RNG overwrites every data byte and Encode
// clears each parity chunk before accumulating into it.
func (c *Code) MaterializeStripeInto(dst []chunk.Chunk, seed int64) {
	fill := chunk.NewFiller(seed)
	for _, cell := range c.layout.DataCells() {
		fill.Fill(dst[c.CellIndex(cell)])
	}
	c.Encode(dst)
}

// RebuildChunk solves the chain equation sum(co_i * x_i) = 0 for the
// lost cell: x_lost = (1/co_lost) * sum of the other weighted members.
func (c *Code) RebuildChunk(id grid.ChainID, lost grid.Coord, stripe []chunk.Chunk) (chunk.Chunk, error) {
	acc := chunk.New(len(stripe[0]))
	if err := c.RebuildChunkInto(acc, id, lost, stripe); err != nil {
		return nil, err
	}
	return acc, nil
}

// RebuildChunkInto is RebuildChunk into dst: dst is cleared, the
// weighted survivors accumulate into it, and the in-place scale by the
// lost coefficient's inverse replaces the scratch buffer RebuildChunk
// used to allocate.
func (c *Code) RebuildChunkInto(dst chunk.Chunk, id grid.ChainID, lost grid.Coord, stripe []chunk.Chunk) error {
	ch, ok := c.layout.Chain(id)
	if !ok {
		return fmt.Errorf("lrc: no chain %v", id)
	}
	co := c.coeffs[id]
	lostCoeff := byte(0)
	clear(dst)
	for i, cell := range ch.Cells {
		if cell == lost {
			lostCoeff = co[i]
			continue
		}
		gf256.MulSlice(co[i], dst, stripe[c.CellIndex(cell)])
	}
	if lostCoeff == 0 {
		return fmt.Errorf("lrc: chain %v does not contain %v", id, lost)
	}
	gf256.ScaleSlice(gf256.Inv(lostCoeff), dst)
	return nil
}

// Interface conformance.
var _ core.Geometry = (*Code)(nil)
