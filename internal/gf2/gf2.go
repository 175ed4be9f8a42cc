// Package gf2 implements dense linear algebra over GF(2) using bit-packed
// rows. It is the algebraic backbone of the erasure-code layer: parity
// chains are linear equations over GF(2) per byte position, so encoding
// (solving for parity cells), decoding (solving for erased cells) and
// fault-coverage verification all reduce to Gaussian elimination on a
// small boolean matrix whose columns are stripe cells.
package gf2

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Matrix is a dense boolean matrix with bit-packed rows. Rows may carry
// an optional augmented part used when solving systems whose right-hand
// sides are symbolic combinations of known cells.
type Matrix struct {
	rows, cols int
	words      int // words per row
	data       []uint64
}

// NewMatrix returns a zero rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("gf2: negative dimensions %dx%d", rows, cols))
	}
	words := (cols + wordBits - 1) / wordBits
	return &Matrix{rows: rows, cols: cols, words: words, data: make([]uint64, rows*words)}
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.cols }

// Get returns the bit at (r, c).
func (m *Matrix) Get(r, c int) bool {
	m.check(r, c)
	return m.data[r*m.words+c/wordBits]&(1<<(uint(c)%wordBits)) != 0
}

// Set assigns the bit at (r, c).
func (m *Matrix) Set(r, c int, v bool) {
	m.check(r, c)
	idx := r*m.words + c/wordBits
	mask := uint64(1) << (uint(c) % wordBits)
	if v {
		m.data[idx] |= mask
	} else {
		m.data[idx] &^= mask
	}
}

// Flip toggles the bit at (r, c).
func (m *Matrix) Flip(r, c int) {
	m.check(r, c)
	m.data[r*m.words+c/wordBits] ^= 1 << (uint(c) % wordBits)
}

func (m *Matrix) check(r, c int) {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic(fmt.Sprintf("gf2: index (%d,%d) out of %dx%d", r, c, m.rows, m.cols))
	}
}

// XORRows adds (XORs) row src into row dst.
func (m *Matrix) XORRows(dst, src int) {
	if dst == src {
		// Adding a row to itself zeroes it in GF(2); callers never want
		// that implicitly.
		panic("gf2: XORRows with dst == src")
	}
	d := m.data[dst*m.words : (dst+1)*m.words]
	s := m.data[src*m.words : (src+1)*m.words]
	for i := range d {
		d[i] ^= s[i]
	}
}

// SwapRows exchanges two rows.
func (m *Matrix) SwapRows(a, b int) {
	if a == b {
		return
	}
	ra := m.data[a*m.words : (a+1)*m.words]
	rb := m.data[b*m.words : (b+1)*m.words]
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{rows: m.rows, cols: m.cols, words: m.words, data: make([]uint64, len(m.data))}
	copy(c.data, m.data)
	return c
}

// RowWeight returns the number of set bits in a row.
func (m *Matrix) RowWeight(r int) int {
	w := 0
	for _, word := range m.data[r*m.words : (r+1)*m.words] {
		w += bits.OnesCount64(word)
	}
	return w
}

// firstSet returns the lowest set column index at or after from in row r,
// or -1 if none.
func (m *Matrix) firstSet(r, from int) int {
	if from >= m.cols {
		return -1
	}
	row := m.data[r*m.words : (r+1)*m.words]
	w := from / wordBits
	word := row[w] &^ ((1 << (uint(from) % wordBits)) - 1)
	for {
		if word != 0 {
			c := w*wordBits + bits.TrailingZeros64(word)
			if c < m.cols {
				return c
			}
			return -1
		}
		w++
		if w >= m.words {
			return -1
		}
		word = row[w]
	}
}

// RowOp is one row addition of an elimination: row Dst ^= row Src. Both
// are named by the position the row had before the elimination swapped
// anything — in a System, the equation's index — so the operations can be
// replayed on any one-value-per-row state that was never permuted.
type RowOp struct{ Dst, Src int }

// Eliminate performs in-place Gauss-Jordan elimination restricted to the
// first solveCols columns (pivot columns are chosen only among those);
// the remaining columns ride along as an augmented part. It returns the
// pivot column for each pivot row, in order.
func (m *Matrix) Eliminate(solveCols int) []int {
	pivots, _, _ := m.eliminate(solveCols)
	return pivots
}

// eliminate is Eliminate returning, beside the pivots, the original
// position of the row that ended at each position and every row
// addition performed, in order.
func (m *Matrix) eliminate(solveCols int) (pivots, rows []int, ops []RowOp) {
	if solveCols < 0 || solveCols > m.cols {
		panic(fmt.Sprintf("gf2: solveCols %d out of range [0,%d]", solveCols, m.cols))
	}
	pivots = make([]int, 0, min(m.rows, solveCols))
	rows = make([]int, m.rows)
	for i := range rows {
		rows[i] = i
	}
	row := 0
	for col := 0; col < solveCols && row < m.rows; col++ {
		pivot := -1
		for r := row; r < m.rows; r++ {
			if m.Get(r, col) {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		m.SwapRows(row, pivot)
		rows[row], rows[pivot] = rows[pivot], rows[row]
		for r := 0; r < m.rows; r++ {
			if r != row && m.Get(r, col) {
				m.XORRows(r, row)
				ops = append(ops, RowOp{Dst: rows[r], Src: rows[row]})
			}
		}
		pivots = append(pivots, col)
		row++
	}
	return pivots, rows, ops
}

// Rank returns the matrix rank over the first solveCols columns,
// computed on a copy.
func (m *Matrix) Rank(solveCols int) int {
	return len(m.Clone().Eliminate(solveCols))
}

// System solves linear systems whose unknowns and right-hand sides are
// both sets of "symbols" (stripe cells in our use). Each equation states
// that the XOR of a set of symbols is zero. Given a subset of symbols
// marked unknown, Solve expresses every solvable unknown as a XOR of
// known symbols.
type System struct {
	symbols   int
	equations [][]int
}

// NewSystem creates a system over the given number of symbols.
func NewSystem(symbols int) *System {
	if symbols < 0 {
		panic("gf2: negative symbol count")
	}
	return &System{symbols: symbols}
}

// AddEquation appends one equation: the XOR of the listed symbols is
// zero. Symbols may repeat (an even number of repeats cancels).
func (s *System) AddEquation(syms []int) {
	eq := make([]int, len(syms))
	copy(eq, syms)
	for _, sym := range eq {
		if sym < 0 || sym >= s.symbols {
			panic(fmt.Sprintf("gf2: symbol %d out of range [0,%d)", sym, s.symbols))
		}
	}
	s.equations = append(s.equations, eq)
}

// Equations returns the number of equations added.
func (s *System) Equations() int { return len(s.equations) }

// Solution maps each solved unknown symbol to the known symbols whose
// XOR reproduces it, and carries the elimination that found them as a
// program over one buffer per equation.
type Solution struct {
	// Terms[u] lists the known symbols to XOR to obtain unknown u.
	// A solved unknown with an empty list is identically zero.
	Terms map[int][]int

	// Start buffer e as the XOR of the values of equation e's known
	// symbols and apply Ops in order (buffer Dst ^= buffer Src). Buffer
	// Row[u] then holds solved unknown u — Terms[u] is that buffer's sum
	// written out — and every buffer in Spare, an equation whose row ended
	// with no unknown in it, is zero when the known values are consistent.
	// A known symbol absent from every Terms list may be left out of every
	// buffer: it cancels in each Row buffer (not in the Spare ones).
	Ops   []RowOp
	Row   map[int]int
	Spare []int
}

// Solve attempts to express every symbol in unknowns as a XOR of symbols
// outside unknowns. It returns the solution and the list of unknowns
// that could not be determined (nil if all solved).
func (s *System) Solve(unknowns []int) (*Solution, []int) {
	unknownIdx := make(map[int]int, len(unknowns)) // symbol -> matrix column
	for i, u := range unknowns {
		if u < 0 || u >= s.symbols {
			panic(fmt.Sprintf("gf2: unknown symbol %d out of range", u))
		}
		if _, dup := unknownIdx[u]; dup {
			panic(fmt.Sprintf("gf2: duplicate unknown symbol %d", u))
		}
		unknownIdx[u] = i
	}
	nu := len(unknowns)

	// Matrix columns: [unknown coefficients | known-symbol coefficients].
	// Known symbols are assigned columns lazily.
	knownIdx := make(map[int]int)
	knownList := make([]int, 0, s.symbols-nu)
	colOfKnown := func(sym int) int {
		if c, ok := knownIdx[sym]; ok {
			return c
		}
		c := len(knownList)
		knownIdx[sym] = c
		knownList = append(knownList, sym)
		return c
	}
	// First pass: assign known columns so the matrix width is final.
	for _, eq := range s.equations {
		for _, sym := range eq {
			if _, isU := unknownIdx[sym]; !isU {
				colOfKnown(sym)
			}
		}
	}
	m := NewMatrix(len(s.equations), nu+len(knownList))
	for r, eq := range s.equations {
		for _, sym := range eq {
			if u, isU := unknownIdx[sym]; isU {
				m.Flip(r, u)
			} else {
				m.Flip(r, nu+knownIdx[sym])
			}
		}
	}
	pivots, rows, ops := m.eliminate(nu)

	sol := &Solution{Terms: make(map[int][]int, nu), Ops: ops, Row: make(map[int]int, nu), Spare: rows[len(pivots):]}
	solvedCol := make(map[int]bool, len(pivots))
	for row, col := range pivots {
		// Row solves unknown `col` only if no other unknown column is set
		// in that row (Gauss-Jordan leaves at most the pivot among pivot
		// columns; a non-pivot unknown column set means underdetermined).
		clean := true
		for c := 0; c < nu; c++ {
			if c != col && m.Get(row, c) {
				clean = false
				break
			}
		}
		if !clean {
			continue
		}
		terms := []int{}
		for c := nu; c < m.Cols(); c++ {
			if m.Get(row, c) {
				terms = append(terms, knownList[c-nu])
			}
		}
		sol.Terms[unknowns[col]] = terms
		sol.Row[unknowns[col]] = rows[row]
		solvedCol[col] = true
	}
	var unsolved []int
	for i, u := range unknowns {
		if !solvedCol[i] {
			unsolved = append(unsolved, u)
		}
	}
	return sol, unsolved
}

// Solvable reports whether every symbol in unknowns can be recovered
// from the remaining symbols.
func (s *System) Solvable(unknowns []int) bool {
	_, unsolved := s.Solve(unknowns)
	return len(unsolved) == 0
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
