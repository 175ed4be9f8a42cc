// Package core implements the paper's contribution: the Favorable Block
// First (FBF) cache scheme for partial stripe recovery in 3DFT arrays.
// It contains the recovery-scheme generator (which parity chain repairs
// each lost chunk), the priority dictionary derived from chain sharing,
// and the three-queue priority cache policy of Algorithm 1.
package core

import (
	"fmt"

	"fbf/internal/codes"
	"fbf/internal/grid"
)

// PartialStripeError describes one partial stripe error: a contiguous
// run of unreadable chunks on a single disk within one stripe — the
// failure mode whose recovery the paper accelerates (sector/chunk errors
// exhibit strong spatial locality, so neighbouring chunks fail
// together).
type PartialStripeError struct {
	Stripe int // stripe index on the array
	Disk   int // failed column
	Row    int // first bad row within the stripe
	Size   int // number of contiguous bad chunks (1 <= Size <= p-1)
}

// String renders the error compactly.
func (e PartialStripeError) String() string {
	return fmt.Sprintf("stripe %d disk %d rows [%d,%d)", e.Stripe, e.Disk, e.Row, e.Row+e.Size)
}

// Validate checks the error against a code's geometry and the paper's
// partial-stripe size bound (at most p-1 chunks; larger errors are
// handled by whole-stripe reconstruction, a different mechanism).
func (e PartialStripeError) Validate(code *codes.Code) error {
	if e.Stripe < 0 {
		return fmt.Errorf("core: negative stripe %d", e.Stripe)
	}
	if e.Disk < 0 || e.Disk >= code.Disks() {
		return fmt.Errorf("core: disk %d out of range [0,%d)", e.Disk, code.Disks())
	}
	if e.Size < 1 {
		return fmt.Errorf("core: non-positive error size %d", e.Size)
	}
	if e.Size > code.MaxPartialSize() {
		return fmt.Errorf("core: error size %d exceeds partial-stripe bound %d", e.Size, code.MaxPartialSize())
	}
	if e.Row < 0 || e.Row+e.Size > code.Rows() {
		return fmt.Errorf("core: rows [%d,%d) out of range [0,%d)", e.Row, e.Row+e.Size, code.Rows())
	}
	return nil
}

// LostCells returns the erased chunk coordinates in row order.
func (e PartialStripeError) LostCells() []grid.Coord {
	return e.appendLostCells(make([]grid.Coord, 0, e.Size))
}

// appendLostCells appends the erased chunk coordinates to dst in row
// order.
func (e PartialStripeError) appendLostCells(dst []grid.Coord) []grid.Coord {
	for r := e.Row; r < e.Row+e.Size; r++ {
		dst = append(dst, grid.Coord{Row: r, Col: e.Disk})
	}
	return dst
}
