// Package store is the data plane under the rebuild service: a
// pluggable chunk store addressed by (disk, stripe, chunk) holding real
// bytes, where the simulator's disk.Array only counts I/O.
//
// Two backends implement the Backend contract: Dir (one directory per
// disk, one self-describing file per chunk) and Mem (an in-memory map
// for tests and benchmarks). The contract is pinned by a shared
// conformance suite (conformance_test.go) that every backend must pass
// — the door a further binding enters through — mirroring the cache
// Policy contract test.
//
// On-media format: every chunk file starts with a fixed-size
// versioned header (magic, version, address, payload length, payload
// CRC, header CRC — see manifest.go) so a chunk is self-describing and
// misdirected or torn writes are detected on read. The store root
// additionally carries an array manifest (manifest.json) describing the
// geometry the chunks encode.
package store

import (
	"errors"
	"fmt"
)

// Addr identifies one chunk on the array: the disk (stripe column) it
// lives on, the stripe index, and the chunk row within the stripe.
type Addr struct {
	Disk   int
	Stripe int
	Chunk  int
}

// String renders the address compactly as "d<disk>/s<stripe>/c<chunk>".
func (a Addr) String() string { return fmt.Sprintf("d%d/s%d/c%d", a.Disk, a.Stripe, a.Chunk) }

// Less orders addresses by (Disk, Stripe, Chunk) — the order List
// returns chunks in.
func (a Addr) Less(o Addr) bool {
	if a.Disk != o.Disk {
		return a.Disk < o.Disk
	}
	if a.Stripe != o.Stripe {
		return a.Stripe < o.Stripe
	}
	return a.Chunk < o.Chunk
}

// Valid reports whether every coordinate is non-negative.
func (a Addr) Valid() bool { return a.Disk >= 0 && a.Stripe >= 0 && a.Chunk >= 0 }

// Info describes one stored chunk.
type Info struct {
	Addr Addr
	Size int // payload bytes
}

// Backend is a pluggable chunk store. Implementations must be safe for
// concurrent readers; concurrent writers to distinct addresses must not
// interfere. The conformance suite in conformance_test.go is the
// executable contract.
type Backend interface {
	// ReadChunk reads the payload stored at a into dst and returns the
	// payload length. dst must be at least Stat(a).Size bytes (the
	// store's chunk size in practice); a shorter dst is an error. A
	// missing chunk reads as ErrNotFound; a chunk whose on-media codec
	// fails validation reads as ErrCorrupt. After any error the contents
	// of dst are unspecified: a backend may validate the payload where
	// it lands.
	ReadChunk(a Addr, dst []byte) (int, error)
	// WriteChunk stores the payload at a, replacing any previous
	// contents. Backends with an on-media codec write atomically enough
	// that a reader sees either the old or the new chunk, never a blend.
	WriteChunk(a Addr, data []byte) error
	// Delete removes the chunk at a; deleting a missing chunk is
	// ErrNotFound.
	Delete(a Addr) error
	// List returns the addresses present on one disk in ascending
	// (Stripe, Chunk) order. A disk with no chunks (including one whose
	// directory was destroyed) lists as empty, not as an error.
	List(disk int) ([]Addr, error)
	// Stat describes the chunk at a without reading its payload, but
	// validating what can be validated cheaply (header codec and stored
	// size for Dir). Missing chunks stat as ErrNotFound; chunks with
	// an invalid header or a size mismatch as ErrCorrupt.
	Stat(a Addr) (Info, error)
}

// WriteDepth reports how many WriteChunk calls to distinct addresses a
// backend's medium rewards having in flight together. It is a statement
// by the backend, not an option: a backend that has a WriteDepth method
// answers for itself, any other answers 1 and is written to serially. A
// wrapper that is safe for concurrent use forwards its inner backend's
// answer; one that does not (a struct that merely embeds Backend) gets
// serial calls on one goroutine, which is what a wrapper that never
// promised otherwise needs.
func WriteDepth(b Backend) int {
	if d, ok := b.(interface{ WriteDepth() int }); ok {
		return d.WriteDepth()
	}
	return 1
}

// StripeDepth reports how many stripes a rebuild may read and evaluate
// at once on this backend, each on its own goroutine, while it writes an
// earlier one back; it also sets how many disks a damage scan lists and
// stats at once. Like WriteDepth it is a statement by the backend, not
// an option: a backend that has a StripeDepth method answers for itself,
// any other answers 1 and is read by one stripe, and scanned one disk, at
// a time on the caller's goroutine. A wrapper that is safe for concurrent
// readers forwards its inner backend's answer; a struct that merely
// embeds Backend does not.
func StripeDepth(b Backend) int {
	if d, ok := b.(interface{ StripeDepth() int }); ok {
		return d.StripeDepth()
	}
	return 1
}

// Error taxonomy: the two sentinel conditions every backend maps its
// failures onto, matchable with errors.Is. Concrete errors carry the
// address (and for corruption, the codec-level cause) via the
// NotFoundError / CorruptError types.
var (
	// ErrNotFound reports a chunk absent from the store.
	ErrNotFound = errors.New("chunk not found")
	// ErrCorrupt reports a chunk present but failing on-media
	// validation (bad header, checksum mismatch, truncated payload).
	ErrCorrupt = errors.New("chunk corrupt")
)

// NotFoundError is the concrete ErrNotFound, naming the address.
type NotFoundError struct {
	Addr Addr
}

func (e *NotFoundError) Error() string { return fmt.Sprintf("store: %v: chunk not found", e.Addr) }

// Is matches ErrNotFound.
func (e *NotFoundError) Is(target error) bool { return target == ErrNotFound }

// CorruptError is the concrete ErrCorrupt, naming the address and
// wrapping the codec error that failed (ErrTruncated, ErrBadMagic,
// ErrVersion, ErrChecksum or ErrAddrMismatch).
type CorruptError struct {
	Addr Addr
	Err  error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: %v: corrupt chunk: %v", e.Addr, e.Err)
}

// Unwrap exposes the codec-level cause.
func (e *CorruptError) Unwrap() error { return e.Err }

// Is matches ErrCorrupt.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// IsNotFound reports whether err denotes a missing chunk.
func IsNotFound(err error) bool { return errors.Is(err, ErrNotFound) }

// IsCorrupt reports whether err denotes a corrupt chunk.
func IsCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }
