// Command mdscheck verifies the fault coverage of every erasure code in
// the repository and, for the placement-family TIP/HDD1 codes, can scan
// the parameter space for the placement with the best verified
// triple-fault coverage. Its output backs the fidelity table in
// DESIGN.md.
//
// Usage:
//
//	mdscheck [-p 5,7,11,13] [-codes star,triplestar,tip,hdd1]
//	mdscheck -search [-distributed] [-budget N] [-p 5,7]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"fbf/internal/cli"
	"fbf/internal/codes"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mdscheck: ")
	primesFlag := flag.String("p", "5,7,11,13", "comma-separated primes to check")
	codesFlag := flag.String("codes", strings.Join(codes.Names(), ","), "comma-separated code names")
	search := flag.Bool("search", false, "search the TIP/HDD1 placement family instead of checking the built-in codes")
	distributed := flag.Bool("distributed", false, "restrict the search to distributed diagonal-parity placements")
	budget := flag.Int("budget", 0, "max candidates per search (0 = unbounded)")
	flag.Parse()

	primes, err := cli.ParseInts(*primesFlag)
	codeNames := cli.SplitList(*codesFlag)
	// An empty list would check nothing, and the run would still pass.
	switch {
	case err != nil:
		log.Fatalf("bad -p: %v", err)
	case len(primes) == 0:
		log.Fatal("bad -p: empty list")
	case len(codeNames) == 0:
		log.Fatal("bad -codes: empty list")
	case *budget < 0:
		log.Fatalf("bad -budget: negative budget %d", *budget)
	}
	// A bad name must fail the run before its first line, not after the
	// codes listed ahead of it have been checked.
	if err := cli.CheckCodes(codeNames, primes); err != nil && !*search {
		log.Fatal(err)
	}

	okAll := true
	for _, p := range primes {
		if *search {
			start := time.Now()
			res, err := codes.SearchPlacement(p, *budget, *distributed)
			if err != nil {
				log.Fatalf("search p=%d: %v", p, err)
			}
			fmt.Printf("placement    p=%-3d best=%+v coverage %d/%d searched=%d (%.2fs)\n",
				p, res.Params, res.Covered, res.Total, res.Searched, time.Since(start).Seconds())
			if !res.Full() {
				okAll = false
			}
			continue
		}
		for _, name := range codeNames {
			code := codes.MustNew(name, p)
			start := time.Now()
			ok, total, failing := code.TripleFaultCoverage()
			status := "FULL"
			if ok != total {
				status = fmt.Sprintf("PARTIAL (%d failing, e.g. %v)", len(failing), failing[0])
				okAll = false
			}
			fmt.Printf("%-12s p=%-3d disks=%-3d triple-fault coverage %d/%d %s  (%.2fs)\n",
				name, p, code.Disks(), ok, total, status, time.Since(start).Seconds())
		}
	}
	if !okAll {
		os.Exit(1)
	}
}
