// Package grid provides the stripe geometry shared by every erasure code
// in this repository: chunk coordinates, parity-chain descriptions and the
// chain sets that recovery-scheme generation operates on.
//
// A stripe is a Rows x Cols grid of chunks. Column j of the grid maps to
// disk j; row i is the i-th chunk of the stripe on that disk. A parity
// chain is a set of chunks whose XOR is zero after encoding. Each chain
// has a direction (horizontal, diagonal or anti-diagonal); triple-fault
// tolerant codes give every data chunk membership in up to three chains,
// one per direction.
package grid

import (
	"fmt"
	"sort"
)

// Coord identifies a chunk inside one stripe by row and column (disk).
type Coord struct {
	Row int
	Col int
}

// String renders the coordinate in the paper's C(row,col) notation.
func (c Coord) String() string { return fmt.Sprintf("C(%d,%d)", c.Row, c.Col) }

// Less orders coordinates row-major, matching on-disk layout order.
func (c Coord) Less(o Coord) bool {
	if c.Row != o.Row {
		return c.Row < o.Row
	}
	return c.Col < o.Col
}

// ChainKind is the direction of a parity chain.
type ChainKind uint8

// The three chain directions present in XOR-based 3DFT codes.
const (
	Horizontal ChainKind = iota
	Diagonal
	AntiDiagonal
	numChainKinds
)

// Kinds lists the chain directions in the order FBF's scheme generator
// loops through them (Section III-A.1 of the paper).
func Kinds() []ChainKind { return []ChainKind{Horizontal, Diagonal, AntiDiagonal} }

// String returns a short human-readable name for the chain kind.
func (k ChainKind) String() string {
	switch k {
	case Horizontal:
		return "horizontal"
	case Diagonal:
		return "diagonal"
	case AntiDiagonal:
		return "anti-diagonal"
	default:
		return fmt.Sprintf("ChainKind(%d)", uint8(k))
	}
}

// Valid reports whether k is one of the three defined directions.
func (k ChainKind) Valid() bool { return k < numChainKinds }

// Chain is one parity chain: the XOR of the contents of all cells is zero
// in an encoded stripe. Cells contains every member, data and parity
// alike (including adjuster cells for codes such as STAR).
type Chain struct {
	Kind  ChainKind
	Index int // index of the chain within its direction
	Cells []Coord
}

// ID uniquely identifies a chain within one code layout.
type ChainID struct {
	Kind  ChainKind
	Index int
}

// ID returns the chain's identifier.
func (c *Chain) ID() ChainID { return ChainID{Kind: c.Kind, Index: c.Index} }

// String renders the chain as "<kind>#<index>{cells...}".
func (c *Chain) String() string {
	s := fmt.Sprintf("%s#%d{", c.Kind, c.Index)
	for i, cell := range c.Cells {
		if i > 0 {
			s += " "
		}
		s += cell.String()
	}
	return s + "}"
}

// Contains reports whether the chain includes the given cell.
func (c *Chain) Contains(cell Coord) bool {
	for _, m := range c.Cells {
		if m == cell {
			return true
		}
	}
	return false
}

// Survivors returns the chain's cells excluding those in lost. The result
// is the fetch set needed to rebuild a single lost member through this
// chain.
func (c *Chain) Survivors(lost map[Coord]bool) []Coord {
	out := make([]Coord, 0, len(c.Cells))
	for _, m := range c.Cells {
		if !lost[m] {
			out = append(out, m)
		}
	}
	return out
}

// Layout describes one code's stripe geometry: grid dimensions, which
// cells hold parity, and the full chain set. Layout values are immutable
// after construction and safe for concurrent use.
type Layout struct {
	rows, cols int
	parity     map[Coord]bool
	chains     []Chain
	byCell     map[Coord][]*Chain
	byID       map[ChainID]*Chain
}

// NewLayout validates and assembles a layout. Every chain cell must be in
// bounds; chains must have distinct (kind, index) pairs and no duplicate
// cells within one chain.
func NewLayout(rows, cols int, parity []Coord, chains []Chain) (*Layout, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("grid: non-positive dimensions %dx%d", rows, cols)
	}
	l := &Layout{
		rows:   rows,
		cols:   cols,
		parity: make(map[Coord]bool, len(parity)),
		chains: make([]Chain, len(chains)),
		byCell: make(map[Coord][]*Chain),
		byID:   make(map[ChainID]*Chain, len(chains)),
	}
	for _, p := range parity {
		if !l.InBounds(p) {
			return nil, fmt.Errorf("grid: parity cell %v out of bounds %dx%d", p, rows, cols)
		}
		if l.parity[p] {
			return nil, fmt.Errorf("grid: duplicate parity cell %v", p)
		}
		l.parity[p] = true
	}
	copy(l.chains, chains)
	for i := range l.chains {
		ch := &l.chains[i]
		if !ch.Kind.Valid() {
			return nil, fmt.Errorf("grid: chain %d has invalid kind %d", i, ch.Kind)
		}
		id := ch.ID()
		if _, dup := l.byID[id]; dup {
			return nil, fmt.Errorf("grid: duplicate chain id %v", id)
		}
		l.byID[id] = ch
		seen := make(map[Coord]bool, len(ch.Cells))
		for _, cell := range ch.Cells {
			if !l.InBounds(cell) {
				return nil, fmt.Errorf("grid: chain %v cell %v out of bounds %dx%d", id, cell, rows, cols)
			}
			if seen[cell] {
				return nil, fmt.Errorf("grid: chain %v repeats cell %v", id, cell)
			}
			seen[cell] = true
			l.byCell[cell] = append(l.byCell[cell], ch)
		}
	}
	return l, nil
}

// MustLayout is NewLayout that panics on error; for use by code
// constructors whose geometry is fixed at compile time.
func MustLayout(rows, cols int, parity []Coord, chains []Chain) *Layout {
	l, err := NewLayout(rows, cols, parity, chains)
	if err != nil {
		panic(err)
	}
	return l
}

// Rows returns the number of rows (chunks per disk per stripe).
func (l *Layout) Rows() int { return l.rows }

// Cols returns the number of columns (disks).
func (l *Layout) Cols() int { return l.cols }

// Cells returns the total number of chunks in one stripe.
func (l *Layout) Cells() int { return l.rows * l.cols }

// InBounds reports whether c lies inside the grid.
func (l *Layout) InBounds(c Coord) bool {
	return c.Row >= 0 && c.Row < l.rows && c.Col >= 0 && c.Col < l.cols
}

// IsParity reports whether the cell holds parity (redundancy) rather than
// user data.
func (l *Layout) IsParity(c Coord) bool { return l.parity[c] }

// ParityCells returns all parity cells in row-major order.
func (l *Layout) ParityCells() []Coord {
	out := make([]Coord, 0, len(l.parity))
	for c := range l.parity {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// DataCells returns all data cells in row-major order.
func (l *Layout) DataCells() []Coord {
	out := make([]Coord, 0, l.Cells()-len(l.parity))
	for r := 0; r < l.rows; r++ {
		for c := 0; c < l.cols; c++ {
			cell := Coord{Row: r, Col: c}
			if !l.parity[cell] {
				out = append(out, cell)
			}
		}
	}
	return out
}

// Chains returns every chain in the layout. The returned slice must not
// be modified.
func (l *Layout) Chains() []Chain { return l.chains }

// Chain looks up a chain by id.
func (l *Layout) Chain(id ChainID) (*Chain, bool) {
	ch, ok := l.byID[id]
	return ch, ok
}

// ChainsThrough returns the chains that include the given cell, ordered
// horizontal, diagonal, anti-diagonal. The slice is a fresh copy the
// caller may reorder; the chains themselves must not be modified.
func (l *Layout) ChainsThrough(c Coord) []*Chain {
	chs := l.byCell[c]
	sorted := make([]*Chain, len(chs))
	copy(sorted, chs)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Kind != sorted[j].Kind {
			return sorted[i].Kind < sorted[j].Kind
		}
		return sorted[i].Index < sorted[j].Index
	})
	return sorted
}

// ChainThrough returns the chain of the given kind that includes the
// cell, if any. Codes place each cell on at most one chain per direction.
func (l *Layout) ChainThrough(c Coord, kind ChainKind) (*Chain, bool) {
	for _, ch := range l.byCell[c] {
		if ch.Kind == kind {
			return ch, true
		}
	}
	return nil, false
}

// ColumnCells returns the cells of one column (disk) top to bottom.
func (l *Layout) ColumnCells(col int) []Coord {
	out := make([]Coord, 0, l.rows)
	for r := 0; r < l.rows; r++ {
		out = append(out, Coord{Row: r, Col: col})
	}
	return out
}
