package rebuild

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"fbf/internal/core"
	"fbf/internal/grid"
	"fbf/internal/store"
	"fbf/internal/telemetry"
)

// scrapeValue renders the registry's Prometheus exposition and returns
// the value of an unlabeled series, the way a scraper would see it.
func scrapeValue(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("parse %s value %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not in exposition:\n%s", name, buf.String())
	return 0
}

// TestServiceMetricsMatchResult pins what single booking promises: the
// cells are the only counters, so two passes sharing one RebuildMetrics
// each report their own work (cell value at exit minus at entry, not
// the running total), the cells hold the sum, and the Progress hook and
// a mid-run scrape see the same numbers advance. Two more passes on the
// same cells pin the "latest pass" gauges to the pass in flight.
func TestServiceMetricsMatchResult(t *testing.T) {
	m := testManifest("star", 5, 4, 96)
	reg := telemetry.NewRegistry()
	rm := telemetry.NewRebuildMetrics(reg)

	pass := func(n int) *ServiceResult {
		// Both kinds of plan in one pass: partial stripe errors take
		// single chains and check chains (the zero test reads members no
		// repair chain fetches), and stripe 3 also loses two whole
		// columns, which takes the decoder.
		b := initMem(t, m, 42)
		losePartialStripes(t, b, m, 3)
		for _, col := range []int{4, 6} {
			for row := 0; row < m.Rows; row++ {
				b.Delete(AddrOf(3, grid.Coord{Row: row, Col: col})) // a cell the partial error took already is fine
			}
		}
		scraped0 := scrapeValue(t, reg, "fbf_rebuild_stripes_done")
		var hooks []Progress
		res, err := RunService(ServiceConfig{
			Backend:     b,
			Manifest:    m,
			Strategy:    core.StrategyLooped, // chains of different kinds cross, so they share sources
			JournalPath: filepath.Join(t.TempDir(), "rebuild.journal"),
			Metrics:     rm,
			Progress: func(p Progress) {
				hooks = append(hooks, p)
				// Scrape mid-run, exactly as the daemon's HTTP endpoint would.
				if got := scrapeValue(t, reg, "fbf_rebuild_stripes_done"); got != scraped0+float64(p.StripesDone) {
					t.Fatalf("pass %d: mid-run scrape saw stripes_done=%v at the pass's stripe %d (entry value %v)", n, got, p.StripesDone, scraped0)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstGroundTruth(t, b, m, 42)
		// The engine keeps no byte cache: CacheHits stays 0 and
		// CacheMisses is every source read.
		if res.ChunksRebuilt == 0 || res.DiskReads == 0 || res.CacheMisses != res.DiskReads || res.VerifyReads == 0 ||
			res.ChunksDecoded == 0 || res.ChunksDecoded == res.ChunksRebuilt {
			t.Fatalf("pass %d is degenerate (%+v): counters not exercised", n, res)
		}
		if len(hooks) != res.StripesRepaired {
			t.Fatalf("pass %d: progress hook fired %d times, want %d", n, len(hooks), res.StripesRepaired)
		}
		prev := 0
		for i, p := range hooks {
			if p.StripesDone != i+1 || p.ChunksRebuilt <= prev {
				t.Fatalf("pass %d: progress %d = %+v after %d chunks: want per-pass counts, strictly increasing", n, i, p, prev)
			}
			prev = p.ChunksRebuilt
		}
		if prev != res.ChunksRebuilt {
			t.Fatalf("pass %d: last progress says %d chunks, result %d", n, prev, res.ChunksRebuilt)
		}
		return res
	}
	first, second := pass(1), pass(2)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same damage, shared cells, different results:\n pass 1 %+v\n pass 2 %+v", first, second)
	}

	for _, c := range []struct {
		name string
		cell uint64
		each uint64
	}{
		{"stripes_planned", rm.StripesPlanned.Value(), uint64(first.StripesRepaired)},
		{"stripes_done", rm.StripesDone.Value(), uint64(first.StripesRepaired)},
		{"chunks_rebuilt", rm.ChunksRebuilt.Value(), uint64(first.ChunksRebuilt)},
		{"chunks_verified", rm.ChunksVerified.Value(), uint64(first.ChunksVerified)},
		{"chunks_decoded", rm.ChunksDecoded.Value(), uint64(first.ChunksDecoded)},
		{"disk_reads", rm.DiskReads.Value(), first.DiskReads},
		{"verify_reads", rm.VerifyReads.Value(), first.VerifyReads},
		{"bytes_written", rm.BytesWritten.Value(), uint64(first.BytesWritten)},
		// A pass appends one scan, one stripe-done record per stripe, one
		// commit per chunk, and the final done.
		{"journal_records", rm.JournalRecords.Value(), uint64(2 + first.StripesRepaired + first.ChunksRebuilt)},
	} {
		if c.cell != 2*c.each {
			t.Errorf("cell %s = %d after two passes of %d each", c.name, c.cell, c.each)
		}
	}
	if got := rm.ScanMissing.Value(); got != float64(second.Report.MissingChunks) {
		t.Errorf("scan_missing gauge = %v, report found %d", got, second.Report.MissingChunks)
	}
	if got := rm.Percent.Value(); got != 100 {
		t.Errorf("progress_percent gauge = %v after a complete run, want 100", got)
	}
	if got := rm.DataLossChunks.Value(); got != 0 {
		t.Errorf("data_loss_chunks gauge = %v on a solvable run", got)
	}

	// The "latest pass" gauges describe the pass in flight from its scan
	// onward. Pass 3 repairs a partial stripe error in stripe 0, then
	// finds four columns of stripe 1 gone, past the code: at its first
	// read it must not still show pass 2's 100 %.
	b := initMem(t, m, 42)
	loseCells(t, b, 0, core.PartialStripeError{Stripe: 0, Disk: 1, Row: 0, Size: 2}.LostCells())
	for col := 0; col < 4; col++ {
		for row := 0; row < m.Rows; row++ {
			b.Delete(AddrOf(1, grid.Coord{Row: row, Col: col}))
		}
	}
	sampled := false
	third, err := RunService(ServiceConfig{
		Backend: &readHook{Backend: b, hook: func() {
			if sampled {
				return
			}
			sampled = true // the first payload read: scanned, nothing repaired yet
			if pct, lost := rm.Percent.Value(), rm.DataLossChunks.Value(); pct != 0 || lost != 0 {
				t.Errorf("pass 3 at its first read: progress_percent %v, data_loss_chunks %v; want 0 and 0", pct, lost)
			}
		}},
		Manifest: m, Metrics: rm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sampled || !third.DataLoss {
		t.Fatalf("pass 3 is degenerate: sampled %v, result %+v", sampled, third)
	}
	if got := rm.DataLossChunks.Value(); got != float64(len(third.Lost)) {
		t.Errorf("data_loss_chunks gauge = %v, pass 3 lost %d", got, len(third.Lost))
	}
	// Pass 4 scans a restored array clean and returns early: it lost
	// nothing and is complete.
	if _, err := RunService(ServiceConfig{Backend: initMem(t, m, 42), Manifest: m, Metrics: rm}); err != nil {
		t.Fatal(err)
	}
	if pct, lost := rm.Percent.Value(), rm.DataLossChunks.Value(); pct != 100 || lost != 0 {
		t.Errorf("after a clean scan: progress_percent %v, data_loss_chunks %v; want 100 and 0", pct, lost)
	}
}

// readHook calls hook before every payload read.
type readHook struct {
	store.Backend
	hook func()
}

func (r *readHook) ReadChunk(a store.Addr, dst []byte) (int, error) {
	r.hook()
	return r.Backend.ReadChunk(a, dst)
}

// TestServiceMetricsNilIsNoop pins that Metrics only decides whether the
// counts are exported: a run without it reports the same result as an
// instrumented one over the same damage.
func TestServiceMetricsNilIsNoop(t *testing.T) {
	run := func(rm *telemetry.RebuildMetrics) *ServiceResult {
		m := testManifest("tip", 5, 3, 64)
		b := initMem(t, m, 42)
		killDisk(t, b, 2)
		res, err := RunService(ServiceConfig{Backend: b, Manifest: m, Metrics: rm})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstGroundTruth(t, b, m, 42)
		return res
	}
	bare := run(nil)
	instr := run(telemetry.NewRebuildMetrics(telemetry.NewRegistry()))
	if bare.ChunksRebuilt == 0 || !reflect.DeepEqual(bare, instr) {
		t.Fatalf("instrumented run diverged: bare=%+v instrumented=%+v", bare, instr)
	}
}

// TestDaemonMetrics drives the watch loop with telemetry armed and
// checks the pass counters and the progress tracker's terminal state.
func TestDaemonMetrics(t *testing.T) {
	m := testManifest("star", 5, 2, 64)
	b := initMem(t, m, resumeSeed)
	killDisk(t, b, 1)

	reg := telemetry.NewRegistry()
	dm := telemetry.NewDaemonMetrics(reg)
	res, err := RunDaemon(DaemonConfig{
		Service:  daemonService(t, b, m),
		MaxScans: 2,
		after:    instantAfter,
		Metrics:  dm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dm.Scans.Value() != uint64(res.Scans) || dm.Rebuilds.Value() != uint64(res.Rebuilds) {
		t.Fatalf("daemon counters scans=%d rebuilds=%d, result says %d/%d",
			dm.Scans.Value(), dm.Rebuilds.Value(), res.Scans, res.Rebuilds)
	}
	if dm.Retries.Value() != 0 || dm.Failures.Value() != 0 || dm.Backoff.Value() != 0 {
		t.Fatalf("healthy daemon shows failure state: retries=%d failures=%v backoff=%v",
			dm.Retries.Value(), dm.Failures.Value(), dm.Backoff.Value())
	}
	snap := dm.Progress()
	if snap.Phase != "stopped" || snap.Scans != 2 || snap.Rebuilds != 1 {
		t.Fatalf("terminal /progress snapshot = %+v, want stopped after 2 scans / 1 rebuild", snap)
	}
}

// TestDaemonMetricsBackoff pins the failure-path gauges: transient scan
// errors bump the retry counter and surface the growing backoff, and a
// later success clears both gauges.
func TestDaemonMetricsBackoff(t *testing.T) {
	m := testManifest("star", 5, 2, 64)
	b := initMem(t, m, resumeSeed)
	killDisk(t, b, 2)
	flaky := &flakyBackend{Backend: b, failures: 2}

	reg := telemetry.NewRegistry()
	dm := telemetry.NewDaemonMetrics(reg)
	var maxFailures, maxBackoff float64
	res, err := RunDaemon(DaemonConfig{
		Service:  daemonService(t, flaky, m),
		MaxScans: 4,
		Retries:  3,
		after: func(d time.Duration) <-chan time.Time {
			if f := dm.Failures.Value(); f > maxFailures {
				maxFailures = f
			}
			if bo := dm.Backoff.Value(); bo > maxBackoff {
				maxBackoff = bo
			}
			return instantAfter(d)
		},
		Metrics: dm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dm.Retries.Value() != uint64(res.Retries) || res.Retries != 2 {
		t.Fatalf("retries metric %d vs result %d, want 2", dm.Retries.Value(), res.Retries)
	}
	if maxFailures != 2 || maxBackoff != 2 {
		t.Fatalf("observed failure peaks: failures=%v backoff=%vs, want 2 and 2s (1s then doubled)", maxFailures, maxBackoff)
	}
	if dm.Failures.Value() != 0 || dm.Backoff.Value() != 0 {
		t.Fatalf("gauges not cleared after recovery: failures=%v backoff=%v", dm.Failures.Value(), dm.Backoff.Value())
	}
}
