package chunk

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randChunk(rng *rand.Rand, n int) Chunk {
	c := New(n)
	rng.Read(c)
	return c
}

func TestNewZeroed(t *testing.T) {
	c := New(100)
	if len(c) != 100 || !c.IsZero() {
		t.Error("New chunk not zeroed")
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	for _, n := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) should panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestXORIntoSelfInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Odd length exercises the byte tail after the word loop.
	a := randChunk(rng, 1003)
	b := randChunk(rng, 1003)
	orig := make(Chunk, len(a))
	copy(orig, a)
	XORInto(a, b)
	if a.Equal(orig) {
		t.Error("XOR changed nothing")
	}
	XORInto(a, b)
	if !a.Equal(orig) {
		t.Error("double XOR did not restore original")
	}
}

func TestXORIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on length mismatch")
		}
	}()
	XORInto(New(8), New(9))
}

func TestXORVariadic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b, c := randChunk(rng, 64), randChunk(rng, 64), randChunk(rng, 64)
	got := XOR(a, b, c)
	want := New(64)
	for i := range want {
		want[i] = a[i] ^ b[i] ^ c[i]
	}
	if !got.Equal(want) {
		t.Error("XOR(a,b,c) wrong")
	}
	// Inputs must not be mutated.
	if a.IsZero() && b.IsZero() {
		t.Error("inputs look mutated")
	}
	if !XOR(a).Equal(a) {
		t.Error("XOR(a) != a")
	}
}

func TestXOREmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for XOR()")
		}
	}()
	XOR()
}

func TestXORProperties(t *testing.T) {
	// Commutativity and associativity, checked on random contents.
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(257)
		a, b, c := randChunk(rng, n), randChunk(rng, n), randChunk(rng, n)
		ab := XOR(a, b)
		ba := XOR(b, a)
		abc1 := XOR(XOR(a, b), c)
		abc2 := XOR(a, XOR(b, c))
		return ab.Equal(ba) && abc1.Equal(abc2) && XOR(a, a).IsZero()
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestEqual(t *testing.T) {
	a := Chunk{1, 2, 3}
	if !a.Equal(Chunk{1, 2, 3}) || a.Equal(Chunk{1, 2}) || a.Equal(Chunk{1, 2, 4}) {
		t.Error("Equal wrong")
	}
}

func TestChecksumDistinguishes(t *testing.T) {
	a := Chunk{1, 2, 3, 4}
	b := Chunk{1, 2, 3, 5}
	if a.Checksum() == b.Checksum() {
		t.Error("checksum collision on near-identical chunks (CRC32 must differ)")
	}
	if a.Checksum() != (Chunk{1, 2, 3, 4}).Checksum() {
		t.Error("checksum not deterministic")
	}
}

// TestIsZeroEveryLengthAndOffset pins the word-wise IsZero and
// bytes.Equal-backed Equal to the byte loops they replaced: every length
// 0…130 (across the 64-byte block and its tail), all zero, and with a
// single non-zero byte — every bit of it in turn — at every offset.
func TestIsZeroEveryLengthAndOffset(t *testing.T) {
	isZeroRef := func(c Chunk) bool {
		for _, b := range c {
			if b != 0 {
				return false
			}
		}
		return true
	}
	for n := 0; n <= 130; n++ {
		// An unaligned window of a larger buffer, so the word loads are
		// not helped by the allocator's alignment.
		c, zero := Chunk(make([]byte, n+1)[1:]), Chunk(make([]byte, n))
		if !c.IsZero() || !isZeroRef(c) || !c.Equal(zero) {
			t.Fatalf("len %d: all-zero chunk: IsZero=%v Equal(zero)=%v", n, c.IsZero(), c.Equal(zero))
		}
		if c.Equal(make(Chunk, n+1)) {
			t.Fatalf("len %d: Equal accepts a chunk of another length", n)
		}
		for off := 0; off < n; off++ {
			for bit := 0; bit < 8; bit++ {
				c[off] = 1 << bit
				if c.IsZero() != isZeroRef(c) || c.Equal(zero) || !c.Equal(c) {
					t.Fatalf("len %d, byte %d = %#x: IsZero=%v Equal(zero)=%v", n, off, c[off], c.IsZero(), c.Equal(zero))
				}
			}
			c[off] = 0
		}
	}
}

func BenchmarkIsZero(b *testing.B) {
	c := New(DefaultSize)
	b.SetBytes(DefaultSize)
	for i := 0; i < b.N; i++ {
		if !c.IsZero() {
			b.Fatal("zero chunk reported non-zero")
		}
	}
}

// TestFillerIsRandRead pins Filler to the stream math/rand's Read yields
// for the same seed, so every seeded stripe keeps its bytes. Each stream
// starts with a lead fill that puts the fills after it at every offset
// mod 7, or ends it on either side of the first block edge (607 words of
// 7 bytes), and then runs fills of every length around the seven-byte
// word, the eight-byte put and the block, about 20 blocks in all.
func TestFillerIsRandRead(t *testing.T) {
	const block = 607 * 7
	sizes := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 14, 15, 64, 100, block - 1, block, block + 1, 32 << 10}
	leads := []int{0, 1, 2, 3, 4, 5, 6, block - 1, block, block + 1}
	seeds := []int64{0, 1, 2, 3, 4, 5, 6, 7, -1, math.MinInt64, math.MaxInt64}
	for _, seed := range seeds {
		for _, lead := range leads {
			r := rand.New(rand.NewSource(seed))
			f := NewFiller(seed)
			for i := -1; i < 2*len(sizes); i++ {
				n := lead
				if i >= 0 {
					n = sizes[(i*5+lead)%len(sizes)]
				}
				want, got := make([]byte, n), make([]byte, n)
				r.Read(want)
				f.Fill(got)
				if !bytes.Equal(want, got) {
					t.Fatalf("seed %d, lead %d, fill %d (%d bytes): not the bytes rand.Read gives", seed, lead, i, n)
				}
			}
		}
	}
}

func BenchmarkFiller(b *testing.B) {
	f := NewFiller(1)
	p := make([]byte, DefaultSize)
	b.SetBytes(DefaultSize)
	for b.Loop() {
		f.Fill(p)
	}
}
