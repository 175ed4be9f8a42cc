package rebuild

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"

	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/grid"
)

// passPrintSHA is the SHA-256 of every read-once pass the sweep of
// TestPassFingerprint builds, field by field. A change to how passes are
// built must leave it alone: every source, fold, snapshot, row addition,
// output and check of every pass is in it.
const passPrintSHA = "d0e931200ea214ec0473663bb2619baf530d7d1339df683b78a74847c46e69e7"

// passTotals are the sweep's counts, checked beside the hash so that a
// mismatch says what moved: passes; sources, those a Fetch equation lists
// and their folds; row additions; snapshots; checks and the rebuilt cells
// they fold back; spare rows.
type passTotals struct {
	passes, sources, fetched, folds, ops, snaps, checks, foldedBack, spare int
}

var passPrintTotals = passTotals{8856, 185337, 157252, 338151, 45870, 20364, 20953, 38796, 4782}

// TestPassFingerprint plans, for every code at p = 5 and 7 under each
// strategy with verify on and off, every single-disk run of rows, every
// one- and two-disk kill (and three-disk kill at p = 5) and each dead disk
// beside rows 0–1 of the disk two to its right, and hashes each pass the
// planner builds for them, decoded and chain-major alike. The constant
// was computed when the two kinds of pass still had builders of their
// own; it pins that one builder reproduces both, field by field.
func TestPassFingerprint(t *testing.T) {
	h := sha256.New()
	var n passTotals
	for _, name := range codes.Names() {
		for _, p := range []int{5, 7} {
			code := codes.MustNew(name, p)
			for _, strategy := range []core.Strategy{core.StrategyTypical, core.StrategyLooped, core.StrategyGreedy} {
				for _, verify := range []bool{true, false} {
					s := &service{cfg: &ServiceConfig{Strategy: strategy, NoVerify: !verify}, code: code}
					for _, lost := range passPrintPatterns(code) {
						plan, err := s.planFor(0, lost)
						if err != nil {
							t.Fatalf("%v %v verify=%v %v: %v", code, strategy, verify, lost, err)
						}
						fmt.Fprintf(h, "%s/%d/%v/%v/%v\n", name, p, strategy, verify, lost)
						printPass(h, plan.pass, &n)
					}
				}
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != passPrintSHA || n != passPrintTotals {
		t.Errorf("pass fingerprint %s, totals %+v; want %s, %+v", got, n, passPrintSHA, passPrintTotals)
	}
}

// passPrintPatterns lists the sweep's lost sets for one code, each sorted.
func passPrintPatterns(code *codes.Code) [][]grid.Coord {
	disks, rows := code.Disks(), code.Rows()
	column := func(d, from, to int) []grid.Coord {
		var out []grid.Coord
		for r := from; r < to; r++ {
			out = append(out, grid.Coord{Row: r, Col: d})
		}
		return out
	}
	kill := func(ds ...int) []grid.Coord {
		var out []grid.Coord
		for _, d := range ds {
			for _, c := range column(d, 0, rows) {
				out = mergeCell(out, c)
			}
		}
		return out
	}
	var out [][]grid.Coord
	for d := 0; d < disks; d++ {
		for size := 1; size <= code.MaxPartialSize(); size++ {
			for row := 0; row+size <= rows; row++ {
				out = append(out, column(d, row, row+size))
			}
		}
	}
	for a := 0; a < disks; a++ {
		out = append(out, kill(a))
		for b := a + 1; b < disks; b++ {
			out = append(out, kill(a, b))
			for c := b + 1; c < disks && code.P() == 5; c++ {
				out = append(out, kill(a, b, c))
			}
		}
	}
	for d := 0; d < disks; d++ {
		lost := kill(d)
		for _, c := range column((d+2)%disks, 0, 2) {
			lost = mergeCell(lost, c)
		}
		out = append(out, lost)
	}
	return out
}

// printPass writes every field of pass to h and adds it to n.
func printPass(h hash.Hash, pass *decodePass, n *passTotals) {
	ints := func(tag string, xs ...int) {
		fmt.Fprint(h, tag)
		for _, x := range xs {
			h.Write(binary.AppendVarint(nil, int64(x)))
		}
	}
	n.passes++
	for _, ch := range pass.chains {
		ints("c", int(ch.Kind), ch.Index)
	}
	for _, src := range pass.sources {
		fetched := 0
		if src.fetched {
			fetched = 1
			n.fetched++
		}
		ints("s", src.cell.Row, src.cell.Col, fetched, len(src.folds))
		ints("f", src.folds...)
		n.sources++
		n.folds += len(src.folds)
	}
	ints("n", pass.snaps...)
	for _, op := range pass.ops {
		ints("o", op.Dst, op.Src)
	}
	ints("u", pass.outputs...)
	for _, check := range pass.checks {
		ints("k", check.chain, check.snap, len(check.cells))
		ints("x", check.cells...)
		n.foldedBack += len(check.cells)
	}
	ints("p", pass.spare...)
	ints(".")
	n.ops += len(pass.ops)
	n.snaps += len(pass.snaps)
	n.checks += len(pass.checks)
	n.spare += len(pass.spare)
}
