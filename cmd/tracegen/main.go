// Command tracegen generates synthetic partial-stripe-error traces in
// the CSV format consumed by the library, for use in scripted
// experiments and regression baselines.
//
// Usage:
//
//	tracegen -code tip -p 7 -groups 1000 -stripes 16384 -seed 1 > trace.csv
//	tracegen -code star -p 13 -disk 0 -dist geometric -groups 500
package main

import (
	"flag"
	"log"
	"os"

	"fbf/internal/codes"
	"fbf/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	codeName := flag.String("code", "tip", "code family (star, triplestar, tip, hdd1)")
	p := flag.Int("p", 7, "prime parameter")
	groups := flag.Int("groups", 256, "number of partial stripe error groups")
	stripes := flag.Int("stripes", 1<<14, "stripes on the array")
	seed := flag.Int64("seed", 1, "RNG seed")
	diskFlag := flag.Int("disk", -1, "pin errors to one disk (negative: random disk per group)")
	distName := flag.String("dist", "uniform", "error-size distribution (uniform, fixed, geometric)")
	fixedSize := flag.Int("size", 0, "error size for -dist fixed")
	flag.Parse()

	code, err := codes.New(*codeName, *p)
	if err != nil {
		log.Fatal(err)
	}
	dist, err := trace.ParseSizeDist(*distName)
	if err != nil {
		log.Fatalf("bad -dist: %v", err)
	}
	// Only the fixed distribution reads -size; any other would ignore it.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "size" && dist != trace.SizeFixed {
			log.Fatalf("bad -size: only -dist fixed uses it, not -dist %s", dist)
		}
	})
	errors, err := trace.Generate(code, trace.Config{
		Groups:    *groups,
		Stripes:   *stripes,
		Seed:      *seed,
		Disk:      *diskFlag,
		Dist:      dist,
		FixedSize: *fixedSize,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.WriteCSV(os.Stdout, errors); err != nil {
		log.Fatal(err)
	}
}
