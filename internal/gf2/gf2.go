// Package gf2 implements dense linear algebra over GF(2) using bit-packed
// rows. It is the algebraic backbone of the erasure-code layer: parity
// chains are linear equations over GF(2) per byte position, so encoding
// (solving for parity cells), decoding (solving for erased cells) and
// fault-coverage verification all reduce to Gaussian elimination on a
// small boolean matrix whose columns are stripe cells. Solve writes each
// solved unknown out as a XOR of known symbols; Schedule also returns a
// program of row additions over one buffer per equation that evaluates
// the same equations, eliminating a second time with sparse (Markowitz)
// pivots inside the block Solve pivoted on, which is what encoders and
// decoders replay on chunk buffers.
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

// RowOp is one row addition of a schedule: row Dst ^= row Src, both
// named by equation index, so the operations can be replayed on any
// one-value-per-equation state.
type RowOp struct{ Dst, Src int }

// Eliminate performs in-place Gauss-Jordan elimination restricted to the
// first solveCols columns (pivot columns are chosen only among those);
// the remaining columns ride along as an augmented part. It returns the
// pivot column for each pivot row, in order.
func (m *Matrix) Eliminate(solveCols int) []int {
	pivots, _ := m.eliminate(solveCols)
	return pivots
}

// eliminate is Eliminate returning, beside the pivots, the original
// position of the row that ended at each position.
func (m *Matrix) eliminate(solveCols int) (pivots, rows []int) {
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
			}
		}
		pivots = append(pivots, col)
		row++
	}
	return pivots, rows
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
// XOR reproduces it. Schedule adds the same equations as a program over
// one buffer per equation.
type Solution struct {
	// Terms[u] lists the known symbols to XOR to obtain unknown u.
	// A solved unknown with an empty list is identically zero.
	Terms map[int][]int

	// Spare lists the equations that pivot on no unknown: what is left of
	// each once the pivot equations cancel its unknowns holds known
	// symbols only, so it is zero when the known values are consistent.
	Spare []int

	// Set by Schedule only. Start buffer e as the XOR of the values of
	// equation e's known symbols and apply Ops in order (buffer Dst ^=
	// buffer Src). Buffer Row[u] then holds solved unknown u — Terms[u] is
	// that buffer's sum written out — and every Spare buffer is the spare
	// equation's remainder. A known symbol absent from every Terms list
	// may be left out of every buffer: it cancels in each Row buffer (not
	// in the Spare ones).
	Ops []RowOp
	Row map[int]int
}

// pivoting is what Schedule takes from Solve's elimination: the pivot
// equations, the unknown positions they pivoted on, and which positions
// ended solved.
type pivoting struct {
	rows, cols []int
	solved     []bool
}

// Solve attempts to express every symbol in unknowns as a XOR of symbols
// outside unknowns. It returns the solution and the list of unknowns
// that could not be determined (nil if all solved). It pivots on the
// first equation, in index order, that holds each unknown in turn.
func (s *System) Solve(unknowns []int) (*Solution, []int) {
	sol, unsolved, _ := s.solve(unknowns)
	return sol, unsolved
}

// Schedule is Solve plus the program that evaluates its equations with
// few row additions: a second Gauss-Jordan elimination over the unknown
// columns only, each step on the pivot that minimises (row weight − 1) ×
// (column count − 1) (Markowitz), ties to the lowest equation and then
// the lowest unknown position. Its pivots are taken only among the
// equations and the unknowns Solve pivoted on. That block of the
// coefficient matrix is invertible, so every pivot equation ends as the
// one combination of pivot equations that leaves its unknown alone on
// the pivot columns, and every spare one as itself plus the one
// combination that cancels its unknowns — the very sums Solve's own
// elimination forms. Terms, Spare and the unsolved list are Solve's.
func (s *System) Schedule(unknowns []int) (*Solution, []int) {
	sol, unsolved, piv := s.solve(unknowns)
	// The unknowns' coefficients as the equations give them.
	col := make(map[int]int, len(unknowns))
	for i, u := range unknowns {
		col[u] = i
	}
	m := NewMatrix(len(s.equations), len(unknowns))
	for r, eq := range s.equations {
		for _, sym := range eq {
			if c, ok := col[sym]; ok {
				m.Flip(r, c)
			}
		}
	}
	colCount := make([]int, m.Cols())
	for r := 0; r < m.Rows(); r++ {
		for c := m.firstSet(r, 0); c >= 0; c = m.firstSet(r, c+1) {
			colCount[c]++
		}
	}
	rowOpen := make([]bool, m.Rows())
	colOpen := make([]bool, m.Cols())
	for i := range piv.rows {
		rowOpen[piv.rows[i]], colOpen[piv.cols[i]] = true, true
	}
	sol.Row = make(map[int]int, len(sol.Terms))
	for range piv.rows {
		prow, pcol, best := -1, -1, -1
		for r := 0; r < m.Rows(); r++ {
			if !rowOpen[r] {
				continue
			}
			w := m.RowWeight(r) - 1
			for c := m.firstSet(r, 0); c >= 0; c = m.firstSet(r, c+1) {
				if cost := w * (colCount[c] - 1); colOpen[c] && (best < 0 || cost < best) {
					prow, pcol, best = r, c, cost
				}
			}
		}
		// The open block stays invertible, so it always holds a pivot.
		rowOpen[prow], colOpen[pcol] = false, false
		for r := 0; r < m.Rows(); r++ {
			if r == prow || !m.Get(r, pcol) {
				continue
			}
			for c := m.firstSet(prow, 0); c >= 0; c = m.firstSet(prow, c+1) {
				if m.Get(r, c) {
					colCount[c]--
				} else {
					colCount[c]++
				}
			}
			m.XORRows(r, prow)
			sol.Ops = append(sol.Ops, RowOp{Dst: r, Src: prow})
		}
		if piv.solved[pcol] {
			sol.Row[unknowns[pcol]] = prow
		}
	}
	return sol, unsolved
}

func (s *System) solve(unknowns []int) (*Solution, []int, *pivoting) {
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
	pivots, rows := m.eliminate(nu)

	sol := &Solution{Terms: make(map[int][]int, nu), Spare: rows[len(pivots):]}
	piv := &pivoting{rows: rows[:len(pivots)], cols: pivots, solved: make([]bool, nu)}
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
		piv.solved[col] = true
	}
	var unsolved []int
	for i, u := range unknowns {
		if !piv.solved[i] {
			unsolved = append(unsolved, u)
		}
	}
	return sol, unsolved, piv
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
