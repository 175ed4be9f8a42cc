// Package chunk provides chunk buffers and the XOR kernels used during
// stripe encoding and reconstruction. A chunk is the unit of recovery in
// the paper (32 KB by default, matching the evaluation's stripe-unit
// size).
package chunk

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
)

// DefaultSize is the chunk size used throughout the paper's evaluation.
const DefaultSize = 32 * 1024

// Chunk is a byte buffer holding one chunk's contents.
type Chunk []byte

// New returns a zeroed chunk of the given size.
func New(size int) Chunk {
	if size <= 0 {
		panic(fmt.Sprintf("chunk: non-positive size %d", size))
	}
	return make(Chunk, size)
}

// xorVectorMin is the length at or above which XORInto routes through
// crypto/subtle.XORBytes: below it the call overhead beats the SIMD
// win, above it the stdlib's platform-vectorized kernel is ~1.5x the
// scalar ceiling (27 GB/s vs 17 GB/s at the paper's 32 KB chunks on
// the reference host).
const xorVectorMin = 256

// XORInto XORs src into dst in place. The two chunks must have equal
// length. Full-size chunks go through crypto/subtle.XORBytes — the
// stdlib's memory-safe vectorized XOR, called with dst aliasing x
// exactly, which its contract allows. Short buffers and platforms
// without the asm route run xorWords, an unsafe-free 8-way unrolled
// 64-bit-word kernel. XOR is position-wise, so both paths are
// bit-identical to the byte loop — pinned by FuzzXORInto against a
// byte-wise reference across all lengths and alignments.
func XORInto(dst, src Chunk) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("chunk: length mismatch %d != %d", len(dst), len(src)))
	}
	if len(dst) >= xorVectorMin {
		subtle.XORBytes(dst, dst, src)
		return
	}
	xorWords(dst, src)
}

// xorWords is the portable scalar kernel: each iteration loads, XORs
// and stores a 64-byte block as eight 64-bit words through fixed-offset
// subslices, which lets the compiler hoist every bounds check to the
// single len(d) >= 64 test and keep the words in registers. A word loop
// and a byte loop mop up the tail.
func xorWords(dst, src Chunk) {
	d, s := []byte(dst), []byte(src)
	for len(d) >= 64 {
		db, sb := d[:64], s[:64:64]
		d0 := binary.LittleEndian.Uint64(db[0:8]) ^ binary.LittleEndian.Uint64(sb[0:8])
		d1 := binary.LittleEndian.Uint64(db[8:16]) ^ binary.LittleEndian.Uint64(sb[8:16])
		d2 := binary.LittleEndian.Uint64(db[16:24]) ^ binary.LittleEndian.Uint64(sb[16:24])
		d3 := binary.LittleEndian.Uint64(db[24:32]) ^ binary.LittleEndian.Uint64(sb[24:32])
		d4 := binary.LittleEndian.Uint64(db[32:40]) ^ binary.LittleEndian.Uint64(sb[32:40])
		d5 := binary.LittleEndian.Uint64(db[40:48]) ^ binary.LittleEndian.Uint64(sb[40:48])
		d6 := binary.LittleEndian.Uint64(db[48:56]) ^ binary.LittleEndian.Uint64(sb[48:56])
		d7 := binary.LittleEndian.Uint64(db[56:64]) ^ binary.LittleEndian.Uint64(sb[56:64])
		binary.LittleEndian.PutUint64(db[0:8], d0)
		binary.LittleEndian.PutUint64(db[8:16], d1)
		binary.LittleEndian.PutUint64(db[16:24], d2)
		binary.LittleEndian.PutUint64(db[24:32], d3)
		binary.LittleEndian.PutUint64(db[32:40], d4)
		binary.LittleEndian.PutUint64(db[40:48], d5)
		binary.LittleEndian.PutUint64(db[48:56], d6)
		binary.LittleEndian.PutUint64(db[56:64], d7)
		d, s = d[64:], s[64:]
	}
	for len(d) >= 8 {
		binary.LittleEndian.PutUint64(d[:8],
			binary.LittleEndian.Uint64(d[:8])^binary.LittleEndian.Uint64(s[:8]))
		d, s = d[8:], s[8:]
	}
	for i := range d {
		d[i] ^= s[i]
	}
}

// XOR returns the XOR of all chunks into a fresh buffer. All chunks must
// share one length; XOR of zero chunks is invalid.
func XOR(chunks ...Chunk) Chunk {
	if len(chunks) == 0 {
		panic("chunk: XOR of no chunks")
	}
	out := make(Chunk, len(chunks[0]))
	copy(out, chunks[0])
	for _, c := range chunks[1:] {
		XORInto(out, c)
	}
	return out
}

// IsZero reports whether every byte of the chunk is zero. It ORs 64-byte
// blocks of eight 64-bit words and tests once per block — the decoded
// stripe's zero test calls it on every chain syndrome — with a byte loop
// for the tail; TestIsZeroEveryLengthAndOffset pins it to the byte loop.
func (c Chunk) IsZero() bool {
	b := []byte(c)
	for len(b) >= 64 {
		w := b[:64]
		if binary.LittleEndian.Uint64(w[0:8])|binary.LittleEndian.Uint64(w[8:16])|
			binary.LittleEndian.Uint64(w[16:24])|binary.LittleEndian.Uint64(w[24:32])|
			binary.LittleEndian.Uint64(w[32:40])|binary.LittleEndian.Uint64(w[40:48])|
			binary.LittleEndian.Uint64(w[48:56])|binary.LittleEndian.Uint64(w[56:64]) != 0 {
			return false
		}
		b = b[64:]
	}
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether two chunks have identical contents.
func (c Chunk) Equal(o Chunk) bool { return bytes.Equal(c, o) }

// Checksum returns a CRC32 (Castagnoli) of the chunk, used by tests and
// the simulator's integrity checks.
func (c Chunk) Checksum() uint32 {
	return crc32.Checksum(c, castagnoli)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Filler writes the byte stream math/rand's (*Rand).Read yields for a
// seeded source: the seven low bytes of each Int63, low byte first, with
// a partial word carried over from one call into the next.
//
// rand.NewSource's generator is additive lagged Fibonacci, word k being
// word k−607 plus word k−273 mod 2⁶⁴ (Int63 masks off the top bit, which
// Read never uses). The Filler draws the first fillerLag words from that
// source and then continues the recurrence in its own ring, a block of
// fillerLag words at a time, so a fill costs an addition and one
// eight-byte put per seven bytes, where Read makes an interface call per
// word and a store per byte.
type Filler struct {
	ring [fillerLag]uint64 // the current block of words, in stream order
	next int               // ring[next] is the stream's next word; fillerLag: refill first
	val  uint64
	pos  int // bytes of val not yet written
}

const (
	fillerLag = 607 // the generator's long lag
	fillerTap = 273 // its short lag
)

// NewFiller returns the Filler of rand.NewSource(seed).
func NewFiller(seed int64) *Filler {
	src := rand.NewSource(seed).(rand.Source64)
	f := &Filler{}
	for i := range f.ring {
		f.ring[i] = src.Uint64()
	}
	return f
}

// refill replaces the ring's block with the next: word i of the new
// block is word i of the old plus word i+334 of the old (i < 273) or
// word i−273 of the new (the rest).
func (f *Filler) refill() {
	lo, hi := f.ring[:fillerTap], f.ring[fillerLag-fillerTap:]
	for i := range lo {
		lo[i] += hi[i]
	}
	lo, hi = f.ring[fillerTap:], f.ring[:fillerLag-fillerTap]
	for i := range lo {
		lo[i] += hi[i]
	}
	f.next = 0
}

// Fill overwrites p with the stream's next len(p) bytes.
func (f *Filler) Fill(p []byte) {
	for ; f.pos > 0 && len(p) > 0; p = p[1:] {
		p[0] = byte(f.val)
		f.val >>= 8
		f.pos--
	}
	// Whole words, each put 7 bytes after the last: a put's eighth byte is
	// overwritten by the next put or by the tail, which keeps at least one.
	for len(p) >= 8 {
		if f.next == fillerLag {
			f.refill()
		}
		words := f.ring[f.next:min(fillerLag, f.next+(len(p)-1)/7)]
		for _, w := range words {
			binary.LittleEndian.PutUint64(p, w)
			p = p[7:]
		}
		f.next += len(words)
	}
	for ; len(p) > 0; p = p[1:] {
		if f.pos == 0 {
			if f.next == fillerLag {
				f.refill()
			}
			f.val, f.pos = f.ring[f.next], 7
			f.next++
		}
		p[0] = byte(f.val)
		f.val >>= 8
		f.pos--
	}
}
