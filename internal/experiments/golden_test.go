package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fbf/internal/rebuild"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// goldenParams is deliberately tiny: the golden file pins rendering and
// simulation determinism, not the paper's numbers, so the cheapest
// non-degenerate sweep suffices.
func goldenParams() Params {
	p := DefaultParams()
	p.Codes = []string{"tip"}
	p.Primes = []int{5}
	p.Policies = []string{"lru", "fbf"}
	p.CacheSizesMB = []int{1, 2}
	p.Workers = 16
	p.Groups = 24
	p.Stripes = 512
	p.Seed = 7
	return p
}

func renderFig8(t *testing.T, parallelism int) []byte {
	t.Helper()
	p := goldenParams()
	p.Parallelism = parallelism
	fig, err := Fig8(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderFigure(&buf, fig, p.Policies); err != nil {
		t.Fatal(err)
	}
	if err := RenderFigureCSV(&buf, fig); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFig8Golden pins the full fbfsim figure pipeline — trace
// generation, scheme generation, cache replay, aggregation and both
// renderers — byte-for-byte against a checked-in golden file, and
// requires the parallel sweep path to reproduce the serial path
// exactly. Regenerate with `go test ./internal/experiments -run Golden
// -update` and review the diff like any other code change.
func TestFig8Golden(t *testing.T) {
	serial := renderFig8(t, 1)
	parallel := renderFig8(t, 4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel sweep output differs from serial:\n--- parallelism 1 ---\n%s\n--- parallelism 4 ---\n%s", serial, parallel)
	}
	golden := filepath.Join("testdata", "fig8_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, serial, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(serial, want) {
		t.Fatalf("figure output drifted from golden file %s:\n--- got ---\n%s\n--- want ---\n%s", golden, serial, want)
	}
}

// renderArtefacts renders every deterministic artefact other than
// Figure 8 at goldenParams scale: Figures 9–11, Table V from a sweep that
// writes spares, the scheme ablation, online recovery and the SOR/DOR
// table. Table IV is left out because it prints wall time.
func renderArtefacts(t *testing.T, parallelism int) []byte {
	t.Helper()
	p := goldenParams()
	p.Parallelism = parallelism
	var buf bytes.Buffer
	for _, build := range []func(Params) (*Figure, error){Fig9, Fig10, Fig11} {
		fig, err := build(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := RenderFigure(&buf, fig, p.Policies); err != nil {
			t.Fatal(err)
		}
	}
	points, err := Sweep(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderTable5(&buf, Table5(points)); err != nil {
		t.Fatal(err)
	}
	ablation, err := SchemeAblation(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderSchemeAblation(&buf, ablation); err != nil {
		t.Fatal(err)
	}
	online, err := OnlineRecovery(p, rebuild.AppWorkload{Seed: p.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderOnline(&buf, online); err != nil {
		t.Fatal(err)
	}
	modes, err := ModeComparison(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderModes(&buf, modes); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestArtefactsGolden pins the bytes of every deterministic artefact
// TestFig8Golden does not cover, and requires the parallel path to
// reproduce the serial one. Regenerate with `go test
// ./internal/experiments -run Golden -update` and review the diff.
func TestArtefactsGolden(t *testing.T) {
	serial := renderArtefacts(t, 1)
	parallel := renderArtefacts(t, 4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel artefacts differ from serial:\n--- parallelism 1 ---\n%s\n--- parallelism 4 ---\n%s", serial, parallel)
	}
	golden := filepath.Join("testdata", "artefacts_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, serial, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(serial, want) {
		t.Fatalf("artefact output drifted from golden file %s:\n--- got ---\n%s\n--- want ---\n%s", golden, serial, want)
	}
}
