// Package gf256 implements arithmetic and dense linear algebra over
// GF(2^8), the field underlying Reed-Solomon-style parities. It powers
// the Local Reconstruction Code (internal/lrc) that realizes the FBF
// paper's footnote: "Reed Solomon based codes like Local Reconstruction
// Codes can be applied with FBF as well".
package gf256

import (
	"fmt"

	"fbf/internal/chunk"
)

// The field is GF(2^8) modulo the primitive polynomial x^8 + x^4 + x^3
// + x^2 + 1 (0x11d), the conventional choice for storage codes.
const poly = 0x11d

var (
	expTable [512]byte // generator powers, doubled to avoid mod 255
	logTable [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= poly
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
}

// Add returns a + b (XOR; addition and subtraction coincide).
func Add(a, b byte) byte { return a ^ b }

// Mul returns a * b.
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a / b; b must be non-zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

// Inv returns the multiplicative inverse of a; a must be non-zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return expTable[255-int(logTable[a])]
}

// Exp returns the generator raised to the n-th power.
func Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return expTable[n]
}

// MulSlice computes dst[i] ^= c * src[i] for all i — the fused
// multiply-accumulate at the heart of RS encoding and decoding.
func MulSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf256: length mismatch %d != %d", len(dst), len(src)))
	}
	if c == 0 {
		return
	}
	if c == 1 {
		// Coefficient 1 is plain XOR — route through the unrolled /
		// vectorized kernel instead of a byte loop (local LRC chains are
		// all-ones, so this is the common case).
		chunk.XORInto(dst, src)
		return
	}
	logC := int(logTable[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= expTable[logC+int(logTable[s])]
		}
	}
}

// ScaleSlice computes dst[i] = c * dst[i] in place, the final
// normalization step when solving a chain equation whose lost-cell
// coefficient is not 1.
func ScaleSlice(c byte, dst []byte) {
	if c == 1 {
		return
	}
	if c == 0 {
		clear(dst)
		return
	}
	logC := int(logTable[c])
	for i, d := range dst {
		if d != 0 {
			dst[i] = expTable[logC+int(logTable[d])]
		}
	}
}

// Matrix is a dense byte matrix over GF(256).
type Matrix struct {
	rows, cols int
	data       []byte
}

// NewMatrix returns a zero rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("gf256: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) byte { return m.data[r*m.cols+c] }

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v byte) { m.data[r*m.cols+c] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// row returns the slice backing row r.
func (m *Matrix) row(r int) []byte { return m.data[r*m.cols : (r+1)*m.cols] }

// Eliminate performs in-place Gauss-Jordan elimination with pivots
// restricted to the first solveCols columns; remaining columns ride
// along as an augmented part. It returns the pivot column per pivot
// row.
func (m *Matrix) Eliminate(solveCols int) []int {
	if solveCols < 0 || solveCols > m.cols {
		panic(fmt.Sprintf("gf256: solveCols %d out of range", solveCols))
	}
	var pivots []int
	row := 0
	for col := 0; col < solveCols && row < m.rows; col++ {
		pivot := -1
		for r := row; r < m.rows; r++ {
			if m.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		if pivot != row {
			pr, rr := m.row(pivot), m.row(row)
			for i := range pr {
				pr[i], rr[i] = rr[i], pr[i]
			}
		}
		// Normalize the pivot row.
		inv := Inv(m.At(row, col))
		rr := m.row(row)
		for i := range rr {
			rr[i] = Mul(rr[i], inv)
		}
		// Clear the column in every other row.
		for r := 0; r < m.rows; r++ {
			if r == row {
				continue
			}
			factor := m.At(r, col)
			if factor == 0 {
				continue
			}
			target := m.row(r)
			for i := range target {
				target[i] ^= Mul(factor, rr[i])
			}
		}
		pivots = append(pivots, col)
		row++
	}
	return pivots
}

// Rank returns the matrix rank over the first solveCols columns,
// computed on a copy.
func (m *Matrix) Rank(solveCols int) int {
	return len(m.Clone().Eliminate(solveCols))
}

// Term is one coefficient-weighted symbol reference.
type Term struct {
	Coeff  byte
	Symbol int
}

// System solves linear systems over GF(256) whose unknowns and
// right-hand sides are symbols, mirroring gf2.System: each equation
// states that a weighted sum of symbols is zero.
type System struct {
	symbols   int
	equations [][]Term
}

// NewSystem creates a system over the given number of symbols.
func NewSystem(symbols int) *System {
	if symbols < 0 {
		panic("gf256: negative symbol count")
	}
	return &System{symbols: symbols}
}

// AddEquation appends one equation: sum of Coeff*Symbol terms is zero.
func (s *System) AddEquation(terms []Term) {
	eq := make([]Term, len(terms))
	copy(eq, terms)
	for _, t := range eq {
		if t.Symbol < 0 || t.Symbol >= s.symbols {
			panic(fmt.Sprintf("gf256: symbol %d out of range", t.Symbol))
		}
	}
	s.equations = append(s.equations, eq)
}

// Solution expresses solved unknowns as weighted sums of known symbols.
type Solution struct {
	Terms map[int][]Term
}

// Solve expresses every unknown as a weighted sum of known symbols,
// returning the unknowns it could not determine.
func (s *System) Solve(unknowns []int) (*Solution, []int) {
	unknownIdx := make(map[int]int, len(unknowns))
	for i, u := range unknowns {
		if u < 0 || u >= s.symbols {
			panic(fmt.Sprintf("gf256: unknown symbol %d out of range", u))
		}
		if _, dup := unknownIdx[u]; dup {
			panic(fmt.Sprintf("gf256: duplicate unknown %d", u))
		}
		unknownIdx[u] = i
	}
	nu := len(unknowns)

	knownIdx := make(map[int]int)
	var knownList []int
	for _, eq := range s.equations {
		for _, t := range eq {
			if _, isU := unknownIdx[t.Symbol]; !isU {
				if _, ok := knownIdx[t.Symbol]; !ok {
					knownIdx[t.Symbol] = len(knownList)
					knownList = append(knownList, t.Symbol)
				}
			}
		}
	}
	m := NewMatrix(len(s.equations), nu+len(knownList))
	for r, eq := range s.equations {
		for _, t := range eq {
			var c int
			if u, isU := unknownIdx[t.Symbol]; isU {
				c = u
			} else {
				c = nu + knownIdx[t.Symbol]
			}
			m.Set(r, c, Add(m.At(r, c), t.Coeff))
		}
	}
	pivots := m.Eliminate(nu)

	sol := &Solution{Terms: make(map[int][]Term, nu)}
	solved := make(map[int]bool, len(pivots))
	for row, col := range pivots {
		clean := true
		for c := 0; c < nu; c++ {
			if c != col && m.At(row, c) != 0 {
				clean = false
				break
			}
		}
		if !clean {
			continue
		}
		var terms []Term
		for c := nu; c < m.Cols(); c++ {
			if v := m.At(row, c); v != 0 {
				// Pivot row reads: unknown + sum(v * known) = 0, so the
				// unknown equals the same sum (addition is XOR).
				terms = append(terms, Term{Coeff: v, Symbol: knownList[c-nu]})
			}
		}
		sol.Terms[unknowns[col]] = terms
		solved[col] = true
	}
	var unsolved []int
	for i, u := range unknowns {
		if !solved[i] {
			unsolved = append(unsolved, u)
		}
	}
	return sol, unsolved
}

// Solvable reports whether every unknown can be recovered.
func (s *System) Solvable(unknowns []int) bool {
	_, unsolved := s.Solve(unknowns)
	return len(unsolved) == 0
}
