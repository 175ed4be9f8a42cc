package codes

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"fbf/internal/chunk"
)

// writtenOutEncode is the encoder Encode replaced, kept as its
// reference: every parity cell cleared and summed from its written-out
// equation, gf2's Terms for the parity cells' erasure.
func writtenOutEncode(t testing.TB, c *Code, s Stripe) {
	t.Helper()
	plan, err := c.RecoveryPlan(c.Layout().ParityCells())
	if err != nil {
		t.Fatal(err)
	}
	for cell, terms := range plan {
		dst := s[c.CellIndex(cell)]
		clear(dst)
		for _, term := range terms {
			chunk.XORInto(dst, s[c.CellIndex(term)])
		}
	}
}

// checkEncode fills a stripe's data cells from rng, parity cells with
// garbage, and requires Encode to produce a stripe that verifies and
// equals the written-out reference byte for byte.
func checkEncode(t testing.TB, c *Code, rng *rand.Rand, size int) {
	t.Helper()
	s := c.NewStripe(size)
	for i := range s {
		rng.Read(s[i])
	}
	ref := make(Stripe, len(s))
	for i := range s {
		ref[i] = append(chunk.Chunk(nil), s[i]...)
	}
	c.Encode(s)
	writtenOutEncode(t, c, ref)
	if !c.Verify(s) {
		t.Fatalf("%v: encoded stripe fails Verify", c)
	}
	for i := range s {
		if !s[i].Equal(ref[i]) {
			t.Fatalf("%v: cell %v differs from the written-out encoder", c, c.CoordOf(i))
		}
	}
}

// TestEncodeMatchesWrittenOut holds the replayed encoder to the sum of
// each parity cell's written-out equation on random stripes, four codes
// × p ∈ {5, 7, 11, 13}.
func TestEncodeMatchesWrittenOut(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, c := range allCodes(t, []int{5, 7, 11, 13}) {
		for i := 0; i < 4; i++ {
			checkEncode(t, c, rng, 1+rng.Intn(80))
		}
	}
}

// TestEncodeFirstUseConcurrent races four goroutines to the first Encode
// of a fresh Code (the encoder is built on first use); under -race this
// checks the build is published safely, and every stripe must come out
// right.
func TestEncodeFirstUseConcurrent(t *testing.T) {
	for _, name := range Names() {
		c := MustNew(name, 7)
		var wg sync.WaitGroup
		stripes := make([]Stripe, 4)
		for g := range stripes {
			stripes[g] = randomDataStripe(c, int64(g), 32)
			wg.Add(1)
			go func(s Stripe) {
				defer wg.Done()
				c.Encode(s)
			}(stripes[g])
		}
		wg.Wait()
		for g, s := range stripes {
			ref := randomDataStripe(c, int64(g), 32)
			writtenOutEncode(t, c, ref)
			for i := range s {
				if !s[i].Equal(ref[i]) {
					t.Fatalf("%v, goroutine %d: cell %v differs from the written-out encoder", c, g, c.CoordOf(i))
				}
			}
		}
	}
}

// FuzzEncode is TestEncodeMatchesWrittenOut over a fuzzed code, prime,
// chunk size and data.
func FuzzEncode(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(16), int64(1))
	f.Add(uint8(3), uint8(3), uint8(1), int64(7))
	f.Fuzz(func(t *testing.T, codeIdx, pIdx, size uint8, seed int64) {
		primes := []int{5, 7, 11, 13}
		names := Names()
		c := MustNew(names[int(codeIdx)%len(names)], primes[int(pIdx)%len(primes)])
		if size == 0 {
			t.Skip()
		}
		checkEncode(t, c, rand.New(rand.NewSource(seed)), int(size))
	})
}

// TestEncodeCounts pins the chunk-sized passes (clears included) one
// stripe's Encode makes at p=13, against the written-out encoder's: per
// parity cell one clear and one XOR per term. The rows are DESIGN.md §12's
// encode table, which must hold them verbatim. STAR's adjuster cells sit
// on many chains, so folding them into each costs more than it saves.
func TestEncodeCounts(t *testing.T) {
	want := []struct {
		code, name                                     string
		writtenOut, replayed, clears, folds, additions int
	}{
		{"tip", "TIP", 888, 456, 36, 384, 36},
		{"hdd1", "HDD1", 888, 456, 36, 384, 36},
		{"triplestar", "Triple-Star", 710, 468, 36, 410, 22},
		{"star", "STAR", 768, 768, 36, 732, 0},
	}
	var table strings.Builder
	for _, w := range want {
		c := MustNew(w.code, 13)
		plan, err := c.RecoveryPlan(c.Layout().ParityCells())
		if err != nil {
			t.Fatal(err)
		}
		writtenOut := len(plan)
		for _, terms := range plan {
			writtenOut += len(terms)
		}
		enc := c.encoder()
		folds := 0
		for _, op := range enc.ops {
			if !c.Layout().IsParity(c.CoordOf(op.Src)) {
				folds++
			}
		}
		got := []int{writtenOut, len(enc.parity) + len(enc.ops), len(enc.parity), folds, len(enc.ops) - folds}
		if exp := []int{w.writtenOut, w.replayed, w.clears, w.folds, w.additions}; fmt.Sprint(got) != fmt.Sprint(exp) {
			t.Errorf("%s: written out, replayed, clears, folds, row additions = %v, want %v", w.name, got, exp)
		}
		fmt.Fprintf(&table, "| %s | %d | %d | %d | %d | %d |\n", w.name, got[0], got[1], got[2], got[3], got[4])
	}
	requireInDesign(t, table.String())
}

// requireInDesign fails unless DESIGN.md holds the rendered table rows
// verbatim but for each line's indentation, and prints them for pasting
// when it does not.
func requireInDesign(t *testing.T, rows string) {
	t.Helper()
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(regexp.MustCompile(`(?m)^[ \t]+`).ReplaceAllString(string(design), ""), rows) {
		t.Errorf("DESIGN.md does not hold these table rows:\n%s", rows)
	}
}

// TestMaterializeStripeGolden pins the bytes of seeded stripes — the data
// stream the Filler writes and the parity Encode sums from it — by the
// CRC-32C of the stripe's cells in cell order, so every seeded store,
// golden and CI drill keeps its bytes.
func TestMaterializeStripeGolden(t *testing.T) {
	golden := []struct {
		code string
		seed int64
		crc  uint32
	}{
		{"hdd1", 1, 0xf01f861d},
		{"hdd1", 0x5eed, 0xf9451462},
		{"star", 1, 0xdd1b12ab},
		{"star", 0x5eed, 0x54d8f3e0},
		{"tip", 1, 0xb83efbca},
		{"tip", 0x5eed, 0xfac363c0},
		{"triplestar", 1, 0xa594a41d},
		{"triplestar", 0x5eed, 0xc2d6fd0c},
	}
	if len(golden) != 2*len(Names()) {
		t.Fatalf("golden covers %d stripes, want 2 for each of %v", len(golden), Names())
	}
	table := crc32.MakeTable(crc32.Castagnoli)
	for _, g := range golden {
		h := crc32.New(table)
		for _, cell := range MustNew(g.code, 7).MaterializeStripe(g.seed, chunk.DefaultSize) {
			h.Write(cell)
		}
		if got := h.Sum32(); got != g.crc {
			t.Errorf("%s p=7 seed %#x: CRC-32C %#08x, want %#08x", g.code, g.seed, got, g.crc)
		}
	}
}
