package core

import (
	"fbf/internal/chunk"
	"fbf/internal/grid"
)

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

// Rebuilder is implemented by codes that can materialize stripe
// contents and rebuild a lost chunk from one parity chain — what the
// engine's VerifyData mode uses to byte-check every recovery. Stripe
// slices are indexed row-major: index = row*Layout().Cols() + col. Both
// methods write into caller-provided buffers, which the engine recycles
// through a chunk.Pool: the destinations may hold garbage on entry
// (chunk.Pool.GetRaw) — implementations overwrite every byte.
type Rebuilder interface {
	Geometry
	// MaterializeStripeInto fills dst — Layout().Cells() chunks of one
	// size — with a deterministic, fully encoded stripe whose
	// pseudo-random data contents derive from seed.
	MaterializeStripeInto(dst []chunk.Chunk, seed int64)
	// RebuildChunkInto recomputes the lost cell from the chain's other
	// members in the given stripe into dst.
	RebuildChunkInto(dst chunk.Chunk, chain grid.ChainID, lost grid.Coord, stripe []chunk.Chunk) error
}

// CellIndex is the row-major stripe index convention shared by
// Rebuilder implementations and the engine.
func CellIndex(layout *grid.Layout, c grid.Coord) int {
	return c.Row*layout.Cols() + c.Col
}
