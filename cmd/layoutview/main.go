// Command layoutview renders erasure-code stripe layouts and recovery
// schemes as text, reproducing the paper's Figures 1–3: the encoding
// layout of a code (which cells are data or parity and which chains
// cross them) and the chain selection plus priority dictionary for a
// partial stripe error.
//
// Usage:
//
//	layoutview -code tip -p 5                         # Figure 1
//	layoutview -code tip -p 5 -disk 0 -row 0 -size 4  # Figure 2 (typical vs FBF)
//	layoutview -code tip -p 7 -disk 0 -row 0 -size 5  # Figure 3 + Table III
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/grid"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("layoutview: ")
	codeName := flag.String("code", "tip", "code family (star, triplestar, tip, hdd1)")
	p := flag.Int("p", 5, "prime parameter")
	disk := flag.Int("disk", -1, "failed disk; negative renders the layout only")
	row := flag.Int("row", 0, "first bad row of the partial stripe error")
	size := flag.Int("size", 0, "number of contiguous bad chunks")
	flag.Parse()

	code, err := codes.New(*codeName, *p)
	if err != nil {
		log.Fatal(err)
	}
	printLayout(code)
	if *disk < 0 {
		return
	}
	e := core.PartialStripeError{Disk: *disk, Row: *row, Size: *size}
	for _, strategy := range []core.Strategy{core.StrategyTypical, core.StrategyLooped} {
		scheme, err := core.GenerateScheme(code, e, strategy)
		if err != nil {
			log.Fatal(err)
		}
		printScheme(code, scheme)
	}
}

// printLayout draws the stripe grid: D for data, H/D/A-flavored parity
// markers, with each cell annotated by the chains through it.
func printLayout(code *codes.Code) {
	layout := code.Layout()
	fmt.Printf("%s: %d disks, %d rows per stripe, %d parity cells per stripe\n\n",
		code, code.Disks(), code.Rows(), len(layout.ParityCells()))

	header := []string{""}
	for c := 0; c < layout.Cols(); c++ {
		header = append(header, fmt.Sprintf("Disk%d", c))
	}
	rows := [][]string{header}
	for r := 0; r < layout.Rows(); r++ {
		cells := []string{fmt.Sprintf("row%d", r)}
		for c := 0; c < layout.Cols(); c++ {
			cell := grid.Coord{Row: r, Col: c}
			mark := "d"
			if layout.IsParity(cell) {
				mark = "P"
			}
			var kinds []string
			for _, ch := range layout.ChainsThrough(cell) {
				kinds = append(kinds, map[grid.ChainKind]string{
					grid.Horizontal: "h", grid.Diagonal: "d", grid.AntiDiagonal: "a",
				}[ch.Kind])
			}
			cells = append(cells, fmt.Sprintf("%s[%s]", mark, strings.Join(dedupe(kinds), "")))
		}
		rows = append(rows, cells)
	}
	render(rows)
	fmt.Println("\n(d = data, P = parity; brackets list the chain directions through the cell:")
	fmt.Println(" h = horizontal, d = diagonal, a = anti-diagonal)")
}

// printScheme reports chain selection, the fetch set and the priority
// dictionary — the content of the paper's Figure 2/3 and Table III.
func printScheme(code *codes.Code, s *core.Scheme) {
	fmt.Printf("\n=== %s recovery scheme for %v ===\n", strings.ToUpper(s.Strategy.String()), s.Err)
	for _, sel := range s.Selected {
		fetches := make([]string, len(sel.Fetch))
		for i, f := range sel.Fetch {
			fetches[i] = f.String()
		}
		fmt.Printf("  rebuild %v via %s#%d: fetch %s\n", sel.Lost, sel.Chain.Kind, sel.Chain.Index, strings.Join(fetches, " "))
	}
	fmt.Printf("  total requests: %d, unique chunks read: %d, shared chunks: %d\n",
		s.TotalRequests(), s.UniqueFetches(), s.SharedChunks())
	groups := s.PriorityGroups()
	for pr := 3; pr >= 1; pr-- {
		cells := groups[pr-1]
		if len(cells) == 0 {
			continue
		}
		names := make([]string, len(cells))
		for i, c := range cells {
			names[i] = c.String()
		}
		fmt.Printf("  priority %d: %s\n", pr, strings.Join(names, ", "))
	}
}

func dedupe(ss []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func render(rows [][]string) {
	widths := make([]int, 0)
	for _, row := range rows {
		for i, cell := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var sb strings.Builder
		for i, cell := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		fmt.Fprintln(os.Stdout, strings.TrimRight(sb.String(), " "))
	}
}
