// Command durability_check exercises the erasure-code layer end to end with
// real chunk contents — encode random stripes under each of the four
// 3DFT codes, erase up to three whole disks, decode, and verify the
// bytes — then repairs a partial stripe error chain by chain the way
// the reconstruction engine does.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"fbf"
)

func main() {
	rng := rand.New(rand.NewSource(2026))
	const chunkSize = 4096

	for _, name := range fbf.CodeNames() {
		code, err := fbf.NewCode(name, 7)
		if err != nil {
			log.Fatal(err)
		}
		stripe := code.NewStripe(chunkSize)
		for _, cell := range code.Layout().DataCells() {
			rng.Read(stripe[code.CellIndex(cell)])
		}
		code.Encode(stripe)
		if !code.Verify(stripe) {
			log.Fatalf("%v: encode failed verification", code)
		}

		// Erase three random whole disks and recover them.
		cols := rng.Perm(code.Disks())[:3]
		backup := snapshot(code, stripe)
		var lost []fbf.Coord
		for _, col := range cols {
			for r := 0; r < code.Rows(); r++ {
				cell := fbf.Coord{Row: r, Col: col}
				lost = append(lost, cell)
				clear(stripe[code.CellIndex(cell)])
			}
		}
		if err := code.Recover(stripe, lost); err != nil {
			log.Fatalf("%v: triple-disk recovery failed: %v", code, err)
		}
		verify(code, stripe, backup)
		fmt.Printf("%-18s disks %v erased and rebuilt, %d chunks verified\n", code.String(), cols, len(stripe))

		// Repair a partial stripe error through its recovery scheme,
		// chain by chain, as the engine does during simulation.
		e := fbf.PartialStripeError{Disk: cols[0], Row: 1, Size: 4}
		scheme, err := fbf.GenerateScheme(code, e, fbf.StrategyLooped)
		if err != nil {
			log.Fatal(err)
		}
		for _, sel := range scheme.Selected {
			want := append([]byte(nil), stripe[code.CellIndex(sel.Lost)]...)
			acc := make([]byte, chunkSize)
			for _, m := range sel.Fetch {
				for i, b := range stripe[code.CellIndex(m)] {
					acc[i] ^= b
				}
			}
			for i := range want {
				if acc[i] != want[i] {
					log.Fatalf("%v: chain %v rebuilt wrong bytes", code, sel.Chain)
				}
			}
		}
		fmt.Printf("%-18s partial error %v repaired via %d chains (%d unique reads)\n\n",
			"", e, len(scheme.Selected), scheme.UniqueFetches())
	}
	fmt.Println("all four codes encode, survive triple disk loss, and repair partial errors")
}

func snapshot(code *fbf.Code, s fbf.Stripe) [][]byte {
	out := make([][]byte, len(s))
	for i := range s {
		out[i] = append([]byte(nil), s[i]...)
	}
	return out
}

func verify(code *fbf.Code, s fbf.Stripe, want [][]byte) {
	for i := range s {
		for j := range s[i] {
			if s[i][j] != want[i][j] {
				log.Fatalf("%v: cell %v differs after recovery", code, code.CoordOf(i))
			}
		}
	}
}
