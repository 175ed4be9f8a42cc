// Engine-focused benchmarks: where the figure benchmarks report the
// paper's metrics, these measure the simulator itself — ns/op and
// allocs/op of a full SOR rebuild per code and policy, raw XOR
// throughput, and scheme-generation latency. TestAllocBudgets runs the
// same operations and fails any whose allocations exceed their ceiling
// in allocBudgets.
package fbf_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"fbf"
	"fbf/internal/chunk"
)

// benchRebuildPolicies is the pair the paper's headline comparison
// needs; the full five-policy grid runs via the figure benchmarks.
var benchRebuildPolicies = []string{"lru", "fbf"}

// rebuildOp returns one full SOR reconstruction — scheme generation,
// cache replay, disk simulation, XOR and spare writes — of codeName at
// p=13 over the 48-group seed-1 trace, with 64 workers, a 1 024-chunk
// cache and 8 192 stripes. BenchmarkRebuild times it and
// TestAllocBudgets counts its allocations, so both see one workload.
func rebuildOp(tb testing.TB, codeName, policy string) func() *fbf.SimResult {
	tb.Helper()
	code := fbf.MustNewCode(codeName, 13)
	errors := benchTrace(tb, code, 48)
	cfg := fbf.SimConfig{
		Code: code, Policy: policy, Strategy: fbf.StrategyLooped,
		Workers: 64, CacheChunks: 32 * 1024 / 32, Stripes: 1 << 13,
	}
	return func() *fbf.SimResult {
		res, err := fbf.Run(cfg, errors)
		if err != nil {
			tb.Fatal(err)
		}
		return res
	}
}

// BenchmarkRebuild measures the engine per code family and policy:
// its own cost (ns/op, allocs/op) alongside the simulated makespan.
func BenchmarkRebuild(b *testing.B) {
	for _, codeName := range fbf.CodeNames() {
		for _, policy := range benchRebuildPolicies {
			b.Run(fmt.Sprintf("code=%s/policy=%s", codeName, policy), func(b *testing.B) {
				op := rebuildOp(b, codeName, policy)
				b.ReportAllocs()
				b.ResetTimer()
				var last *fbf.SimResult
				for i := 0; i < b.N; i++ {
					last = op()
				}
				b.ReportMetric(last.Makespan.Milliseconds(), "recon-ms")
				b.ReportMetric(last.HitRatio(), "hit-ratio")
			})
		}
	}
}

// xorBuffers returns an accumulator and a patterned source chunk of
// size bytes for the XOR kernel benchmarks.
func xorBuffers(size int) (acc, src []byte) {
	acc = chunk.New(size)
	src = chunk.New(size)
	for i := range src {
		src[i] = byte(i * 31)
	}
	return acc, src
}

// BenchmarkXOR reports accumulator XOR throughput (MB/s) at the paper's
// 32 KB chunk size — the compute kernel of every chain repair.
func BenchmarkXOR(b *testing.B) {
	const size = 32 * 1024
	acc, src := xorBuffers(size)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunk.XORInto(acc, src)
	}
}

// xorKernelSizes sweeps the XOR kernel across its dispatch regimes:
// below 256 bytes XORInto runs the unrolled scalar word loop, at and
// above it routes through crypto/subtle's vectorized XORBytes.
var xorKernelSizes = []int{64, 255, 256, 4 * 1024, 32 * 1024, 256 * 1024}

// BenchmarkXORKernel reports kernel throughput per buffer size.
func BenchmarkXORKernel(b *testing.B) {
	for _, size := range xorKernelSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			acc, src := xorBuffers(size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				chunk.XORInto(acc, src)
			}
		})
	}
}

// schemeGenOp returns one looped-scheme generation — the paper's
// Table IV temporal overhead — for a mid-sized error on codeName at
// p=13. BenchmarkSchemeGen times it and TestAllocBudgets counts its
// allocations.
func schemeGenOp(tb testing.TB, codeName string) func() {
	tb.Helper()
	code := fbf.MustNewCode(codeName, 13)
	e := fbf.PartialStripeError{Disk: 0, Row: 0, Size: max(code.Rows()/2, 1)}
	return func() {
		if _, err := fbf.GenerateScheme(code, e, fbf.StrategyLooped); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkSchemeGen measures scheme-generation latency per code.
func BenchmarkSchemeGen(b *testing.B) {
	for _, codeName := range fbf.CodeNames() {
		b.Run("code="+codeName, func(b *testing.B) {
			op := schemeGenOp(b, codeName)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// allocBudget is one row's ceiling: heap objects and bytes allocated
// per op.
type allocBudget struct{ allocs, bytes float64 }

// allocTolerance is how far a row may exceed its ceiling before it fails.
const allocTolerance = 0.10

// allocBudgets holds the ceiling of every row TestAllocBudgets measures,
// named as `go test -bench` names the benchmark. The Rebuild and
// SchemeGen ceilings are the allocs/op and B/op those benchmarks
// measured; a change that lowers a row should lower its ceiling too.
// The XOR kernel allocates nothing at any size, so its rows have a zero
// ceiling, which admits no allocation at all.
var allocBudgets = map[string]allocBudget{
	"Rebuild/code=hdd1/policy=fbf":       {1655, 543515},
	"Rebuild/code=hdd1/policy=lru":       {2543, 624351},
	"Rebuild/code=star/policy=fbf":       {1699, 684974},
	"Rebuild/code=star/policy=lru":       {2590, 777469},
	"Rebuild/code=tip/policy=fbf":        {1655, 543324},
	"Rebuild/code=tip/policy=lru":        {2543, 624371},
	"Rebuild/code=triplestar/policy=fbf": {1663, 548162},
	"Rebuild/code=triplestar/policy=lru": {2547, 628416},
	"SchemeGen/code=hdd1":                {15, 6584},
	"SchemeGen/code=star":                {15, 7560},
	"SchemeGen/code=tip":                 {15, 6584},
	"SchemeGen/code=triplestar":          {15, 6760},
	"XOR/32KB":                           {},
	"XORKernel/size=64":                  {},
	"XORKernel/size=255":                 {},
	"XORKernel/size=256":                 {},
	"XORKernel/size=4096":                {},
	"XORKernel/size=32768":               {},
	"XORKernel/size=262144":              {},
}

// allocRow is one operation whose allocations have a ceiling.
type allocRow struct {
	name string
	op   func()
}

// allocBudgetOps is how many ops a nonzero row is averaged over, after
// one warm-up op.
const allocBudgetOps = 10

// allocsPerOp returns the heap objects and bytes op allocates per call,
// from the runtime's cumulative counters as testing.B reads them for
// allocs/op and B/op.
func allocsPerOp(op func()) (allocs, bytes float64) {
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range allocBudgetOps {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / allocBudgetOps,
		float64(after.TotalAlloc-before.TotalAlloc) / allocBudgetOps
}

// overBudget measures every row and returns one message per row that
// has no ceiling in budgets or exceeds its ceiling by more than
// allocTolerance, and one per ceiling that no row measures.
func overBudget(rows []allocRow, budgets map[string]allocBudget) []string {
	var fails []string
	measured := map[string]bool{}
	for _, r := range rows {
		measured[r.name] = true
		ceiling, ok := budgets[r.name]
		switch {
		case !ok:
			fails = append(fails, fmt.Sprintf("%s: no ceiling in allocBudgets", r.name))
		case ceiling == allocBudget{}:
			if n := testing.AllocsPerRun(100, r.op); n != 0 {
				fails = append(fails, fmt.Sprintf("%s: %.0f allocs/op, ceiling 0", r.name, n))
			}
		default:
			allocs, bytes := allocsPerOp(r.op)
			if allocs > ceiling.allocs*(1+allocTolerance) || bytes > ceiling.bytes*(1+allocTolerance) {
				fails = append(fails, fmt.Sprintf("%s: %.1f allocs/op and %.0f B/op, ceiling %.0f allocs/op and %.0f B/op +%.0f%%",
					r.name, allocs, bytes, ceiling.allocs, ceiling.bytes, 100*allocTolerance))
			}
		}
	}
	for name := range budgets {
		if !measured[name] {
			fails = append(fails, fmt.Sprintf("%s: ceiling in allocBudgets but no row measures it", name))
		}
	}
	return fails
}

// TestAllocBudgets gates the simulator's allocations: every benchmark
// row of this file, per code, policy and XOR size, must stay within its
// ceiling in allocBudgets. It does not run in parallel, so no other
// test's allocations reach the runtime's counters while it reads them.
func TestAllocBudgets(t *testing.T) {
	var rows []allocRow
	for _, codeName := range fbf.CodeNames() {
		for _, policy := range benchRebuildPolicies {
			op := rebuildOp(t, codeName, policy)
			rows = append(rows, allocRow{fmt.Sprintf("Rebuild/code=%s/policy=%s", codeName, policy), func() { op() }})
		}
		rows = append(rows, allocRow{"SchemeGen/code=" + codeName, schemeGenOp(t, codeName)})
	}
	xorRow := func(name string, size int) allocRow {
		acc, src := xorBuffers(size)
		return allocRow{name, func() { chunk.XORInto(acc, src) }}
	}
	rows = append(rows, xorRow("XOR/32KB", 32*1024))
	for _, size := range xorKernelSizes {
		rows = append(rows, xorRow(fmt.Sprintf("XORKernel/size=%d", size), size))
	}
	for _, fail := range overBudget(rows, allocBudgets) {
		t.Error(fail)
	}
}

// allocSink keeps TestOverBudgetFails' allocation on the heap.
var allocSink []byte

// TestOverBudgetFails checks the gate itself: a row without a ceiling,
// a ceiling without a row, an allocation against a zero ceiling and a
// row over its ceiling's tolerance each fail, and a row within its
// tolerance passes.
func TestOverBudgetFails(t *testing.T) {
	alloc := func() { allocSink = make([]byte, 1000) }
	for _, c := range []struct {
		row     allocRow
		budgets map[string]allocBudget
		want    string
	}{
		{allocRow{"unbudgeted", func() {}}, map[string]allocBudget{}, "unbudgeted: no ceiling"},
		{allocRow{"row", func() {}}, map[string]allocBudget{"row": {}, "stale": {1, 1}}, "stale: ceiling in allocBudgets but no row"},
		{allocRow{"zero", alloc}, map[string]allocBudget{"zero": {}}, "zero: 1 allocs/op, ceiling 0"},
		{allocRow{"over", alloc}, map[string]allocBudget{"over": {1, 900}}, "over: 1.0 allocs/op and 1024 B/op, ceiling 1 allocs/op and 900 B/op +10%"},
		{allocRow{"within", alloc}, map[string]allocBudget{"within": {1, 1000}}, ""},
	} {
		fails := overBudget([]allocRow{c.row}, c.budgets)
		if got := strings.Join(fails, "\n"); c.want == "" && got != "" || !strings.Contains(got, c.want) {
			t.Errorf("row %s: overBudget = %q, want %q", c.row.name, got, c.want)
		}
	}
}
