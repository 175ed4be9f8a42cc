package trace

import (
	"bytes"
	"strings"
	"testing"

	"fbf/internal/codes"
	"fbf/internal/core"
)

func TestSizeDistNames(t *testing.T) {
	for _, d := range []SizeDist{SizeUniform, SizeFixed, SizeGeometric} {
		parsed, err := ParseSizeDist(d.String())
		if err != nil || parsed != d {
			t.Errorf("round trip %v failed: %v %v", d, parsed, err)
		}
	}
	if _, err := ParseSizeDist("nope"); err == nil {
		t.Error("ParseSizeDist(nope) should fail")
	}
	if SizeDist(9).String() != "SizeDist(9)" {
		t.Error("invalid dist String wrong")
	}
}

func TestGenerateUniform(t *testing.T) {
	code := codes.MustNew("tip", 7)
	errors, err := Generate(code, Config{Groups: 500, Stripes: 1000, Seed: 1, Disk: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(errors) != 500 {
		t.Fatalf("got %d groups", len(errors))
	}
	sizes := map[int]int{}
	for _, e := range errors {
		if err := e.Validate(code); err != nil {
			t.Fatalf("invalid error %v: %v", e, err)
		}
		sizes[e.Size]++
	}
	// Uniform over [1,6]: every size must occur.
	for s := 1; s <= 6; s++ {
		if sizes[s] == 0 {
			t.Errorf("size %d never drawn", s)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	code := codes.MustNew("star", 5)
	a, _ := Generate(code, Config{Groups: 50, Stripes: 100, Seed: 7, Disk: -1})
	b, _ := Generate(code, Config{Groups: 50, Stripes: 100, Seed: 7, Disk: -1})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c, _ := Generate(code, Config{Groups: 50, Stripes: 100, Seed: 8, Disk: -1})
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGeneratePinnedDisk(t *testing.T) {
	code := codes.MustNew("hdd1", 5)
	errors, err := Generate(code, Config{Groups: 30, Stripes: 100, Seed: 2, Disk: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range errors {
		if e.Disk != 3 {
			t.Fatalf("error on disk %d, want 3", e.Disk)
		}
	}
}

func TestGenerateDistinctStripesWhilePossible(t *testing.T) {
	code := codes.MustNew("tip", 5)
	errors, err := Generate(code, Config{Groups: 50, Stripes: 100, Seed: 3, Disk: 0})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, e := range errors {
		if seen[e.Stripe] {
			t.Fatalf("stripe %d reused with %d stripes available", e.Stripe, 100)
		}
		seen[e.Stripe] = true
	}
}

func TestGenerateFixedSize(t *testing.T) {
	code := codes.MustNew("tip", 7)
	errors, err := Generate(code, Config{Groups: 20, Stripes: 50, Seed: 4, Disk: 0, Dist: SizeFixed, FixedSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range errors {
		if e.Size != 5 {
			t.Fatalf("size %d, want 5", e.Size)
		}
	}
}

func TestGenerateGeometric(t *testing.T) {
	code := codes.MustNew("tip", 13)
	errors, err := Generate(code, Config{Groups: 400, Stripes: 1000, Seed: 5, Disk: 0, Dist: SizeGeometric})
	if err != nil {
		t.Fatal(err)
	}
	small, large := 0, 0
	for _, e := range errors {
		if e.Size <= 2 {
			small++
		}
		if e.Size >= 10 {
			large++
		}
	}
	if small <= large {
		t.Errorf("geometric sizes not skewed small: small=%d large=%d", small, large)
	}
}

func TestGenerateErrors(t *testing.T) {
	code := codes.MustNew("tip", 5)
	cases := []Config{
		{Groups: 0, Stripes: 10},
		{Groups: 10, Stripes: 0},
		{Groups: 10, Stripes: 10, Disk: 99},
		{Groups: 10, Stripes: 10, Dist: SizeFixed, FixedSize: 0},
		{Groups: 10, Stripes: 10, Dist: SizeFixed, FixedSize: 99},
		{Groups: 10, Stripes: 10, Dist: SizeDist(42)},
		{Groups: 12, Stripes: 8, Disk: 0},                  // more groups than stripes on a pinned disk
		{Groups: 8*code.Disks() + 1, Stripes: 8, Disk: -1}, // more groups than (stripe, disk) pairs
	}
	for i, cfg := range cases {
		if _, err := Generate(code, cfg); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	code := codes.MustNew("star", 7)
	errors, err := Generate(code, Config{Groups: 40, Stripes: 80, Seed: 6, Disk: -1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, errors); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(errors) {
		t.Fatalf("round trip count %d != %d", len(back), len(errors))
	}
	for i := range errors {
		if back[i] != errors[i] {
			t.Fatalf("round trip mismatch at %d: %v vs %v", i, back[i], errors[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("stripe,disk,row,size\n1,2,3\n")); err == nil {
		t.Error("short row accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,x,3,4\n")); err == nil {
		t.Error("non-numeric accepted")
	}
	out, err := ReadCSV(strings.NewReader("stripe,disk,row,size\n\n1,2,0,1\n"))
	if err != nil || len(out) != 1 {
		t.Errorf("blank lines not skipped: %v %v", out, err)
	}
}

func TestGenerateClustered(t *testing.T) {
	code := codes.MustNew("tip", 7)
	// neighborFrac reports the fraction of errors with a same-disk
	// neighbour within `within` stripes — the statistic Schroeder et al.
	// report for latent sector errors (20-60% within ten sectors).
	neighborFrac := func(errors []core.PartialStripeError, within int) float64 {
		n := 0
		for i, e := range errors {
			for j, o := range errors {
				if i == j || o.Disk != e.Disk {
					continue
				}
				gap := e.Stripe - o.Stripe
				if gap < 0 {
					gap = -gap
				}
				if gap <= within {
					n++
					break
				}
			}
		}
		return float64(n) / float64(len(errors))
	}
	base := Config{Groups: 200, Stripes: 100000, Seed: 9, Disk: -1}
	uniform, err := Generate(code, base)
	if err != nil {
		t.Fatal(err)
	}
	clustered := base
	clustered.Clustered = true
	burst, err := Generate(code, clustered)
	if err != nil {
		t.Fatal(err)
	}
	if len(burst) != 200 {
		t.Fatalf("clustered generated %d groups", len(burst))
	}
	for _, e := range burst {
		if err := e.Validate(code); err != nil {
			t.Fatalf("invalid clustered error %v: %v", e, err)
		}
	}
	u, c := neighborFrac(uniform, 16), neighborFrac(burst, 16)
	if c < 0.35 {
		t.Errorf("clustered neighbour fraction %.2f, want >= 0.35 (paper cites 20-60%%)", c)
	}
	if c <= u {
		t.Errorf("clustering no denser than uniform: %.2f vs %.2f", c, u)
	}
	// No duplicate (stripe, disk) pairs even when clustered.
	seen := map[[2]int]bool{}
	for _, e := range burst {
		k := [2]int{e.Stripe, e.Disk}
		if seen[k] {
			t.Fatalf("duplicate error location %v", k)
		}
		seen[k] = true
	}
}

func TestGenerateClusteredDeterministic(t *testing.T) {
	code := codes.MustNew("star", 5)
	cfg := Config{Groups: 60, Stripes: 5000, Seed: 3, Disk: -1, Clustered: true}
	a, _ := Generate(code, cfg)
	b, _ := Generate(code, cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("clustered generation not deterministic")
		}
	}
}

// TestGenerateNoSharedPair pins that no two groups share a (stripe,
// disk) pair once groups outnumber stripes, or when a cluster burst has
// taken the pair the fallback draws, up to every pair taken.
func TestGenerateNoSharedPair(t *testing.T) {
	code := codes.MustNew("tip", 5)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"more groups than stripes", Config{Groups: 30, Stripes: 8, Seed: 1, Disk: -1}},
		{"clustered", Config{Groups: 200, Stripes: 64, Seed: 2, Disk: -1, Clustered: true}},
		{"pinned disk, clustered", Config{Groups: 40, Stripes: 64, Seed: 1, Disk: 0, Clustered: true}},
		{"every stripe of a pinned disk, clustered", Config{Groups: 64, Stripes: 64, Seed: 1, Disk: 0, Clustered: true}},
		{"every pair", Config{Groups: 8 * code.Disks(), Stripes: 8, Seed: 1, Disk: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errors, err := Generate(code, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(errors) != tc.cfg.Groups {
				t.Fatalf("got %d groups, want %d", len(errors), tc.cfg.Groups)
			}
			seen := map[[2]int]bool{}
			for _, e := range errors {
				k := [2]int{e.Stripe, e.Disk}
				if seen[k] {
					t.Fatalf("two groups on (stripe, disk) %v", k)
				}
				seen[k] = true
			}
		})
	}
}
