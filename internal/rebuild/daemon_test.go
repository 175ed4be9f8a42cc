package rebuild

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fbf/internal/store"
	"fbf/internal/store/faultstore"
)

// instantAfter is the timer seam for daemon tests: every wait fires
// immediately, so loops run at full speed without wall-clock sleeps.
func instantAfter(time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	ch <- time.Time{}
	return ch
}

func daemonService(t *testing.T, b store.Backend, m store.ArrayManifest) ServiceConfig {
	t.Helper()
	return ServiceConfig{
		Backend: b, Manifest: m,
		JournalPath: filepath.Join(t.TempDir(), "rebuild.journal"),
	}
}

// TestDaemonRepairsOnDamage pins the watch loop: the first scan finds
// and repairs the damage, the second confirms clean, and the loop ends
// at MaxScans.
func TestDaemonRepairsOnDamage(t *testing.T) {
	m := testManifest("star", 5, 2, 64)
	b := initMem(t, m, resumeSeed)
	killDisk(t, b, 1)
	var logs []string
	res, err := RunDaemon(DaemonConfig{
		Service:  daemonService(t, b, m),
		MaxScans: 2,
		after:    instantAfter,
		Logf:     func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scans != 2 || res.Rebuilds != 1 || res.Interrupted || res.DataLoss {
		t.Fatalf("daemon result: %+v", res)
	}
	if res.ChunksRebuilt != m.Rows*m.Stripes {
		t.Fatalf("rebuilt %d chunks, want the killed disk's %d", res.ChunksRebuilt, m.Rows*m.Stripes)
	}
	checkAgainstGroundTruth(t, b, m, resumeSeed)
	if len(logs) != 2 || !strings.Contains(logs[0], "rebuilt") || !strings.Contains(logs[1], "clean") {
		t.Fatalf("daemon log: %q", logs)
	}
}

// flakyBackend fails every operation with a transient error until its
// countdown reaches zero.
type flakyBackend struct {
	store.Backend
	failures int
}

var errFlaky = errors.New("transient backend failure")

func (f *flakyBackend) List(disk int) ([]store.Addr, error) {
	if f.failures > 0 {
		f.failures--
		return nil, errFlaky
	}
	return f.Backend.List(disk)
}

// TestDaemonRetriesTransientFaults pins the backoff ladder: transient
// scan failures are retried (with exponentially growing waits) and a
// later pass completes the repair.
func TestDaemonRetriesTransientFaults(t *testing.T) {
	m := testManifest("star", 5, 2, 64)
	b := initMem(t, m, resumeSeed)
	killDisk(t, b, 2)
	flaky := &flakyBackend{Backend: b, failures: 3}
	svc := daemonService(t, flaky, m)
	var waits []time.Duration
	res, err := RunDaemon(DaemonConfig{
		Service:  svc,
		MaxScans: 5, // budget: 3 failed + 1 repairing + 1 clean
		Retries:  4,
		after: func(d time.Duration) <-chan time.Time {
			waits = append(waits, d)
			return instantAfter(d)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 3 || res.Rebuilds != 1 || res.DataLoss {
		t.Fatalf("daemon result: %+v", res)
	}
	checkAgainstGroundTruth(t, b, m, resumeSeed)
	// The first three waits are the exponential retry backoffs.
	if len(waits) < 3 || waits[0] != time.Second || waits[1] != 2*time.Second || waits[2] != 4*time.Second {
		t.Fatalf("backoff waits = %v, want 1s, 2s, 4s prefix", waits)
	}
}

// TestDaemonBackoffSaturates pins the delay against a store that never
// recovers: doubling must stop at DefaultMaxBackoff instead of shifting past
// it (a 1 s base shifted 34 times is negative, 64 times zero — a timer
// that fires at once, i.e. a hot loop).
func TestDaemonBackoffSaturates(t *testing.T) {
	m := testManifest("star", 5, 1, 32)
	flaky := &flakyBackend{Backend: initMem(t, m, resumeSeed), failures: 1 << 30}
	var waits []time.Duration
	_, err := RunDaemon(DaemonConfig{
		Service: daemonService(t, flaky, m),
		Retries: 80,
		after: func(d time.Duration) <-chan time.Time {
			waits = append(waits, d)
			return instantAfter(d)
		},
	})
	if !errors.Is(err, errFlaky) {
		t.Fatalf("exhausted daemon returned %v, want the transient error", err)
	}
	if len(waits) != 80 {
		t.Fatalf("waited %d times, want one per retry (80)", len(waits))
	}
	for i, d := range waits {
		if d <= 0 || d > DefaultMaxBackoff || (i > 0 && d < waits[i-1]) {
			t.Fatalf("backoff %d = %v after %v: want non-decreasing in (0, %v]", i+1, d, waits[:i], DefaultMaxBackoff)
		}
	}
	if waits[0] != DefaultBackoff || waits[79] != DefaultMaxBackoff {
		t.Fatalf("backoff runs %v … %v, want %v … %v", waits[0], waits[79], DefaultBackoff, DefaultMaxBackoff)
	}
}

// TestDaemonGivesUpAfterRetryBudget pins the failure exit: persistent
// errors exhaust the budget and surface as a daemon error.
func TestDaemonGivesUpAfterRetryBudget(t *testing.T) {
	m := testManifest("star", 5, 1, 32)
	b := initMem(t, m, resumeSeed)
	flaky := &flakyBackend{Backend: b, failures: 1 << 30}
	res, err := RunDaemon(DaemonConfig{
		Service: daemonService(t, flaky, m),
		Retries: 2,
		after:   instantAfter,
	})
	if err == nil || !errors.Is(err, errFlaky) {
		t.Fatalf("exhausted daemon returned %v, want the transient error", err)
	}
	if res.Retries != 3 {
		t.Fatalf("took %d retries, want 3 attempts before giving up", res.Retries)
	}
}

// TestDaemonGracefulStop pins shutdown: a pre-closed stop exits before
// any scan; a stop landing mid-repair finishes the in-flight chunk,
// keeps the journal, and a later daemon run resumes to byte-exact.
func TestDaemonGracefulStop(t *testing.T) {
	m := testManifest("star", 5, 2, 64)

	stopped := make(chan struct{})
	close(stopped)
	res, err := RunDaemon(DaemonConfig{
		Service: daemonService(t, initMem(t, m, resumeSeed), m),
		Stop:    stopped,
		after:   instantAfter,
	})
	if err != nil || !res.Interrupted || res.Scans != 0 {
		t.Fatalf("pre-closed stop: %+v, %v", res, err)
	}

	root := t.TempDir()
	journal := filepath.Join(root, "rebuild.journal")
	d := initResumeDir(t, root, m)
	hook := &stopAfter{Backend: d, writes: 2, stop: make(chan struct{})}
	svc := ServiceConfig{Backend: hook, Manifest: m, JournalPath: journal}
	res, err = RunDaemon(DaemonConfig{Service: svc, Stop: hook.stop, after: instantAfter})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || res.ChunksRebuilt != 2 {
		t.Fatalf("mid-repair stop: %+v", res)
	}
	if _, err := os.Stat(journal); err != nil {
		t.Fatalf("journal missing after daemon stop: %v", err)
	}

	res, err = RunDaemon(DaemonConfig{
		Service:  ServiceConfig{Backend: d, Manifest: m, JournalPath: journal},
		MaxScans: 1,
		after:    instantAfter,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted || res.DataLoss || res.Last.ResumedCommits != 2 {
		t.Fatalf("daemon resume: %+v (last %+v)", res, res.Last)
	}
	checkAgainstGroundTruth(t, d, m, resumeSeed)
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Fatalf("journal survives completed daemon resume: %v", err)
	}
}

// TestDaemonResumesCrashedRebuild composes the crash-safety pieces end
// to end: a journaled rebuild killed by an injected crash point leaves
// its journal behind, and a daemon reading the same medium through a
// bandwidth throttle resumes it to a byte-exact, journal-free store.
func TestDaemonResumesCrashedRebuild(t *testing.T) {
	m := testManifest("star", 5, 2, 64)
	root := t.TempDir()
	journal := filepath.Join(root, "rebuild.journal")
	// A counting run of the same rebuild places the crash: its last
	// m.Rows operations are write-backs of the final stripe, so crashing
	// that many before the end leaves that stripe in flight with commits
	// to replay.
	countRoot := t.TempDir()
	counter := faultstore.Wrap(initResumeDir(t, countRoot, m), faultstore.Plan{})
	if _, err := RunService(ServiceConfig{Backend: counter, Manifest: m, JournalPath: filepath.Join(countRoot, "rebuild.journal")}); err != nil {
		t.Fatal(err)
	}
	crashing := faultstore.Wrap(initResumeDir(t, root, m), faultstore.Plan{Seed: 1, CrashAfterOps: counter.Ops() - m.Rows, TornWrites: true})
	_, err := RunService(ServiceConfig{Backend: crashing, Manifest: m, JournalPath: journal})
	if !errors.Is(err, faultstore.ErrCrashed) {
		t.Fatalf("crashed rebuild returned %v, want ErrCrashed", err)
	}

	d := openResumeDir(t, root)
	throttled, err := store.NewThrottle(d, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDaemon(DaemonConfig{
		Service:  ServiceConfig{Backend: throttled, Manifest: m, JournalPath: journal},
		MaxScans: 1,
		after:    instantAfter,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DataLoss || res.Interrupted || res.Scans != 1 || res.Rebuilds != 1 || res.Last.ResumedCommits == 0 {
		t.Fatalf("daemon resume: %+v (last %+v)", res, res.Last)
	}
	checkAgainstGroundTruth(t, d, m, resumeSeed)
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Fatalf("journal survives completed daemon resume: %v", err)
	}
}

// TestDaemonConfigGuards pins the wiring rules: the daemon owns the
// stop channel and plan-only service modes are rejected.
func TestDaemonConfigGuards(t *testing.T) {
	m := testManifest("star", 5, 1, 32)
	b := initMem(t, m, resumeSeed)
	svc := daemonService(t, b, m)
	svc.Stop = make(chan struct{})
	if _, err := RunDaemon(DaemonConfig{Service: svc, after: instantAfter}); err == nil {
		t.Fatal("daemon accepted a pre-wired Service.Stop")
	}
	svc = daemonService(t, b, m)
	svc.CheckOnly = true
	if _, err := RunDaemon(DaemonConfig{Service: svc, after: instantAfter}); err == nil {
		t.Fatal("daemon accepted a check-only service")
	}
}
