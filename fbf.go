// Package fbf is a simulation library reproducing "Favorable Block
// First: A Comprehensive Cache Scheme to Accelerate Partial Stripe
// Recovery of Triple Disk Failure Tolerant Arrays" (Li, Ji, Wu, Li,
// Guo — ICPP 2017).
//
// This file is the library's curated API: the names the programs under
// examples/ and the root benchmark and regression tests import, and no
// others (TestFacadeStaysCurated fails on a name nothing imports). It
// covers the paper's pipeline — erasure codes (STAR, Triple-Star, TIP,
// HDD1, plus the footnote-3 LRC), recovery-scheme generation with the
// FBF priority dictionary, the cache policies, error-trace generation,
// the discrete-event reconstruction engines, and the sweep behind the
// paper's figures and tables. Tracing and the real-bytes storage
// engine live in the internal packages and are
// reached through the commands (cmd/fbfsim, cmd/fbfctl, ...), which
// import those packages directly.
//
// Quick start:
//
//	code, _ := fbf.NewCode("tip", 7)
//	errs, _ := fbf.GenerateTrace(code, fbf.TraceConfig{Groups: 100, Stripes: 4096, Seed: 1, Disk: -1})
//	res, _ := fbf.Run(fbf.SimConfig{Code: code, Policy: "fbf", Strategy: fbf.StrategyLooped,
//		Workers: 128, CacheChunks: 2048, Stripes: 4096}, errs)
//	fmt.Printf("hit ratio %.3f, %d disk reads, %v reconstruction\n",
//		res.HitRatio(), res.DiskReads, res.Makespan)
package fbf

import (
	"fbf/internal/cache"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/disk"
	"fbf/internal/experiments"
	"fbf/internal/grid"
	"fbf/internal/lrc"
	"fbf/internal/rebuild"
	"fbf/internal/trace"
)

// Types.
type (
	// Coord identifies a chunk within a stripe: C(row, col).
	Coord = grid.Coord
	// Code is an erasure-code instance (family bound to a prime p).
	Code = codes.Code
	// Stripe holds one stripe's chunk contents.
	Stripe = codes.Stripe
	// ChunkID identifies a chunk on the array (stripe + cell).
	ChunkID = cache.ChunkID
	// FBFCache is the paper's three-queue priority policy.
	FBFCache = core.FBF
	// PartialStripeError is a contiguous run of bad chunks on one disk.
	PartialStripeError = core.PartialStripeError
	// Strategy selects the chain-selection heuristic.
	Strategy = core.Strategy
	// TraceConfig parameterizes synthetic error-trace generation.
	TraceConfig = trace.Config
	// SimConfig parameterizes one reconstruction run.
	SimConfig = rebuild.Config
	// SimResult aggregates one run's metrics.
	SimResult = rebuild.Result
	// AppWorkload parameterizes a foreground read stream for online
	// recovery.
	AppWorkload = rebuild.AppWorkload
	// Mode selects SOR or DOR parallelization.
	Mode = rebuild.Mode
	// DiskModel is a disk service-time model.
	DiskModel = disk.Model
)

// Chain-selection strategies and engine modes.
const (
	// StrategyTypical is conventional horizontal-only recovery.
	StrategyTypical = core.StrategyTypical
	// StrategyLooped is the paper's direction-looping FBF scheme.
	StrategyLooped = core.StrategyLooped
	// StrategyGreedy is the marginal-I/O-minimizing ablation.
	StrategyGreedy = core.StrategyGreedy
	// ModeSOR partitions the cache across stripe-oriented workers.
	ModeSOR = rebuild.ModeSOR
	// ModeDOR runs one process per disk over one shared cache.
	ModeDOR = rebuild.ModeDOR
)

// Functions, in pipeline order: codes, schemes, caches, traces,
// simulation, experiments.
var (
	// NewCode constructs a code by family name ("star", "triplestar",
	// "tip", "hdd1").
	NewCode = codes.New
	// MustNewCode is NewCode that panics on error.
	MustNewCode = codes.MustNew
	// CodeNames lists the registered code families.
	CodeNames = codes.Names
	// NewSTAR constructs the STAR code (p+3 disks).
	NewSTAR = codes.NewSTAR
	// NewTripleStar constructs the Triple-Star stand-in (p+2 disks).
	NewTripleStar = codes.NewTripleStar
	// NewTIP constructs the TIP-code stand-in (p+1 disks).
	NewTIP = codes.NewTIP
	// NewHDD1 constructs the HDD1 stand-in (p+1 disks).
	NewHDD1 = codes.NewHDD1
	// NewLRC constructs the Azure-style LRC(k, l, g) over GF(256) with
	// the given stripe height.
	NewLRC = lrc.New
	// GenerateScheme builds the recovery scheme for one error.
	GenerateScheme = core.GenerateScheme
	// NewPolicy constructs a registered policy ("fbf", "fifo", "lru",
	// "lfu", "arc", "lru2", "2q", "opt") with a capacity in chunks.
	NewPolicy = cache.New
	// PolicyNames lists the registered policies.
	PolicyNames = cache.Names
	// NewFBF constructs the FBF policy directly.
	NewFBF = core.NewFBF
	// GenerateTrace produces partial stripe error groups.
	GenerateTrace = trace.Generate
	// WriteTraceCSV serializes a trace.
	WriteTraceCSV = trace.WriteCSV
	// ReadTraceCSV parses a serialized trace.
	ReadTraceCSV = trace.ReadCSV
	// Run executes a reconstruction and returns the metrics.
	Run = rebuild.Run
	// NewPositional builds a positional disk model.
	NewPositional = disk.NewPositional
	// DefaultExperimentParams is the paper's configuration.
	DefaultExperimentParams = experiments.DefaultParams
	// Sweep runs the full sweep cross product.
	Sweep = experiments.Sweep
	// Fig8 reproduces Figure 8 (hit ratio).
	Fig8 = experiments.Fig8
	// Table5 reproduces Table V (maximum improvements).
	Table5 = experiments.Table5
	// RenderFigure prints a figure as aligned text tables.
	RenderFigure = experiments.RenderFigure
)
