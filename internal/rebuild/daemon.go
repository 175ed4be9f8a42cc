// daemon.go is the watch-mode driver behind `fbfctl daemon`: scan the
// store on an interval, run a journaled (hence crash-safe) rebuild
// whenever damage appears, retry transient failures with exponential
// backoff, and shut down gracefully — finish the writes in flight, sync
// the journal — when asked to stop.
package rebuild

import (
	"fmt"
	"time"

	"fbf/internal/telemetry"
)

// Daemon defaults.
const (
	DefaultInterval   = 10 * time.Second
	DefaultRetries    = 5
	DefaultBackoff    = time.Second
	DefaultMaxBackoff = time.Minute
)

// DaemonConfig parameterizes one watch loop.
type DaemonConfig struct {
	// Service is the rebuild configuration each damaged scan executes.
	// JournalPath should be set so every repair pass is resumable; Stop
	// is wired by the daemon and must be left nil here.
	Service ServiceConfig

	// Interval is the pause between clean scans (DefaultInterval when
	// zero).
	Interval time.Duration

	// Retries bounds consecutive failed rebuild attempts before the
	// daemon gives up (DefaultRetries when zero; negative disables
	// retrying). A successful pass resets the budget. The pause before
	// a retry is DefaultBackoff, doubling per consecutive failure up to
	// DefaultMaxBackoff.
	Retries int

	// MaxScans, when positive, ends the loop after that many scans —
	// drills and tests; zero watches until Stop.
	MaxScans int

	// Stop requests graceful shutdown: the chunk writes in flight are
	// finished, the journal synced, and RunDaemon returns with
	// Interrupted set.
	Stop <-chan struct{}

	// Logf, when non-nil, receives one line per daemon event (scan
	// outcomes, retries, shutdown).
	Logf func(format string, args ...any)

	// Metrics, when non-nil, exports the watch loop's cells (scan
	// cycles, backoff state) and its Tracker, which the loop drives
	// through its phases — the state behind `fbfctl daemon -listen`'s
	// /progress. Build it with telemetry.NewDaemonMetrics; nil counts on
	// a private struct.
	Metrics *telemetry.DaemonMetrics

	// after is the timer seam (time.After when nil) so tests drive the
	// loop without wall-clock sleeps.
	after func(time.Duration) <-chan time.Time
}

// DaemonResult aggregates one watch loop's lifetime.
type DaemonResult struct {
	Scans           int // rebuild passes started (each begins with a scan)
	Rebuilds        int // passes that found damage and repaired
	Retries         int // transient-failure retries taken
	StripesRepaired int
	ChunksRebuilt   int

	// Interrupted is set when Stop ended the loop (possibly mid-repair;
	// the journal then holds the progress). DataLoss latches if any
	// pass hit unrecoverable cells.
	Interrupted bool
	DataLoss    bool

	// Last is the most recent service result, nil if no pass completed.
	Last *ServiceResult
}

func (c *DaemonConfig) defaults() {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.Retries == 0 {
		c.Retries = DefaultRetries
	}
	if c.after == nil {
		c.after = time.After
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Metrics == nil {
		c.Metrics = &telemetry.DaemonMetrics{Tracker: telemetry.NewProgressTracker()}
	}
}

// wait sleeps d or until Stop (never, when nil), reporting whether Stop
// ended it.
func (c *DaemonConfig) wait(d time.Duration) bool {
	select {
	case <-c.Stop:
		return true
	case <-c.after(d):
		return false
	}
}

// cappedDoubling is the retry backoff: min(base·2^k, limit) for
// base > 0, doubled step by step so no product past limit is ever
// formed (base<<k wraps negative long before k reaches a daemon's
// failure count).
func cappedDoubling(base, limit time.Duration, k int) time.Duration {
	d := min(base, limit)
	for ; k > 0 && d < limit; k-- {
		if d > limit/2 {
			return limit
		}
		d *= 2
	}
	return d
}

// RunDaemon watches a store: every Interval it scans and, when damage
// appears, runs the journaled rebuild — retrying transient failures
// with exponential backoff — until Stop fires or MaxScans is reached.
// It returns an error only when the configuration is unusable or the
// retry budget is exhausted; damage and interruption are results, not
// errors.
func RunDaemon(cfg DaemonConfig) (*DaemonResult, error) {
	cfg.defaults()
	if cfg.Service.Stop != nil {
		return nil, &ConfigError{Field: "Service.Stop", Reason: "the daemon wires graceful stop itself; set DaemonConfig.Stop"}
	}
	if cfg.Service.CheckOnly || cfg.Service.DryRun {
		return nil, &ConfigError{Field: "Service", Reason: "the daemon repairs; check-only and dry-run do not apply"}
	}
	cfg.Service.Stop = cfg.Stop
	mt := cfg.Metrics
	// Chain the service's per-stripe Progress into the tracker so
	// /progress follows the pass in flight; the caller's own hook still
	// fires.
	tracker, orig := mt.Tracker, cfg.Service.Progress
	cfg.Service.Progress = func(p Progress) {
		tracker.Stripe(p.Stripe, p.StripesDone, p.StripesTotal, p.ChunksRebuilt, p.Percent())
		if orig != nil {
			orig(p)
		}
	}

	// The cells are the loop's only pass counters; they may be shared
	// with an earlier loop, so the result reports their change since
	// entry.
	res := &DaemonResult{}
	scans0, rebuilds0, retries0 := mt.Scans.Value(), mt.Rebuilds.Value(), mt.Retries.Value()
	defer func() {
		tracker.SetPhase("stopped")
		res.Scans = int(mt.Scans.Value() - scans0)
		res.Rebuilds = int(mt.Rebuilds.Value() - rebuilds0)
		res.Retries = int(mt.Retries.Value() - retries0)
	}()
	failures := 0
	for {
		if stopRequested(cfg.Stop) {
			res.Interrupted = true
			return res, nil
		}
		mt.Scans.Inc()
		tracker.Scan()
		scan := int(mt.Scans.Value() - scans0)
		sres, err := RunService(cfg.Service)
		if err != nil {
			failures++
			mt.Retries.Inc()
			if cfg.Retries < 0 || failures > cfg.Retries {
				return res, fmt.Errorf("rebuild daemon: giving up after %d consecutive failures: %w", failures, err)
			}
			backoff := cappedDoubling(DefaultBackoff, DefaultMaxBackoff, failures-1)
			mt.Failures.Set(float64(failures))
			mt.Backoff.Set(backoff.Seconds())
			tracker.SetPhase("backoff")
			cfg.Logf("rebuild failed (attempt %d/%d), retrying in %v: %v", failures, cfg.Retries, backoff, err)
			if cfg.wait(backoff) {
				res.Interrupted = true
				return res, nil
			}
			continue
		}
		failures = 0
		mt.Failures.Set(0)
		mt.Backoff.Set(0)
		res.Last = sres
		res.StripesRepaired += sres.StripesRepaired
		res.ChunksRebuilt += sres.ChunksRebuilt
		if sres.DataLoss {
			res.DataLoss = true
			cfg.Logf("scan %d: DATA LOSS — %d chunks unrecoverable", scan, len(sres.Lost))
		}
		switch {
		case sres.Interrupted:
			res.Interrupted = true
			cfg.Logf("scan %d: interrupted after %d stripes; journal kept at offset %d", scan, sres.StripesRepaired, sres.JournalOffset)
			return res, nil
		case sres.Report.Clean() && sres.ChunksRebuilt == 0:
			cfg.Logf("scan %d: clean", scan)
		default:
			mt.Rebuilds.Inc()
			cfg.Logf("scan %d: rebuilt %d chunks in %d stripes", scan, sres.ChunksRebuilt, sres.StripesRepaired)
		}
		if cfg.MaxScans > 0 && scan >= cfg.MaxScans {
			return res, nil
		}
		tracker.SetPhase("watching")
		if cfg.wait(cfg.Interval) {
			res.Interrupted = true
			return res, nil
		}
	}
}
