package core

import "fbf/internal/grid"

// Geometry is the view of an erasure code that recovery-scheme
// generation needs: the stripe layout with its parity chains plus the
// partial-stripe size bound. Both the XOR-based 3DFT codes
// (internal/codes) and the Reed-Solomon-based LRC (internal/lrc)
// implement it.
type Geometry interface {
	// Layout returns the stripe geometry and chain set.
	Layout() *grid.Layout
	// Disks returns the number of disks (stripe columns).
	Disks() int
	// Rows returns the chunk rows per stripe.
	Rows() int
	// MaxPartialSize returns the largest partial stripe error handled at
	// chunk granularity (p-1 for the paper's codes; larger errors fall
	// to whole-stripe reconstruction).
	MaxPartialSize() int
}

// CellIndex is the row-major stripe index convention the codes' stripe
// slices share: index = row*Layout().Cols() + col.
func CellIndex(layout *grid.Layout, c grid.Coord) int {
	return c.Row*layout.Cols() + c.Col
}
