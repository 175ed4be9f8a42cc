package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"fbf/internal/chunk"
	"fbf/internal/codes"
	"fbf/internal/rebuild"
	"fbf/internal/store"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runCtl drives the CLI in-process.
func runCtl(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// initStore materializes a small deterministic array and returns its
// directory.
func initStore(t *testing.T, codeName string, stripes int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "array")
	_, errOut, code := runCtl(t, "init", "-store", dir, "-code", codeName, "-p", "5",
		"-stripes", fmt.Sprint(stripes), "-chunk", "128", "-seed", "42")
	if code != exitOK {
		t.Fatalf("init failed (%d): %s", code, errOut)
	}
	return dir
}

// treeHash digests every file (relative path + content) under dir, so
// two calls compare entire store trees byte for byte.
func treeHash(t *testing.T, dir string) string {
	t.Helper()
	h := sha256.New()
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	for _, p := range paths {
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\n%d\n", rel, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// checkGroundTruth re-materializes every stripe from the init seed and
// byte-compares the store, then re-checks stripe parity with the code's
// Verify oracle — two independent acceptance gates.
func checkGroundTruth(t *testing.T, dir, codeName string, stripes int) {
	t.Helper()
	const chunkSize, seed = 128, 42
	code := codes.MustNew(codeName, 5)
	b, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]chunk.Chunk, code.Layout().Cells())
	stripe := make([]chunk.Chunk, code.Layout().Cells())
	for i := range want {
		want[i] = chunk.New(chunkSize)
		stripe[i] = chunk.New(chunkSize)
	}
	for s := 0; s < stripes; s++ {
		code.MaterializeStripeInto(want, rebuild.StripeSeed(seed, s))
		for idx := range stripe {
			a := rebuild.AddrOf(s, code.CoordOf(idx))
			if _, err := b.ReadChunk(a, stripe[idx]); err != nil {
				t.Fatalf("read %v: %v", a, err)
			}
			if !stripe[idx].Equal(want[idx]) {
				t.Fatalf("chunk %v differs from ground truth", a)
			}
		}
		if !code.Verify(stripe) {
			t.Fatalf("stripe %d fails parity verification", s)
		}
	}
}

// TestEndToEndRecovery is the acceptance drill: materialize an array,
// kill three whole disk directories, prove check-only and dry-run leave
// the tree byte-identical, rebuild, and byte-diff the result against
// recomputed ground truth plus the parity oracle — across two codes and
// both the typical and FBF strategies.
func TestEndToEndRecovery(t *testing.T) {
	const stripes = 3
	for _, codeName := range []string{"star", "tip"} {
		for _, strategy := range []string{"typical", "fbf"} {
			t.Run(codeName+"-"+strategy, func(t *testing.T) {
				kill := []int{0, 2, 4}
				if !codes.MustNew(codeName, 5).CanRecoverColumns(kill...) {
					t.Fatalf("%s cannot recover disks %v; bad test setup", codeName, kill)
				}
				dir := initStore(t, codeName, stripes)
				for _, d := range kill {
					if err := os.RemoveAll(filepath.Join(dir, store.DiskDirName(d))); err != nil {
						t.Fatal(err)
					}
				}

				damaged := treeHash(t, dir)
				if _, _, code := runCtl(t, "status", "-store", dir); code != exitDamaged {
					t.Fatalf("status on damaged store = %d, want %d", code, exitDamaged)
				}
				// Read-only modes must not move a byte.
				if _, _, code := runCtl(t, "rebuild", "-store", dir, "-o", "check-only"); code != exitDamaged {
					t.Fatalf("check-only = %d, want %d", code, exitDamaged)
				}
				if got := treeHash(t, dir); got != damaged {
					t.Fatal("check-only modified the store")
				}
				if _, errOut, code := runCtl(t, "rebuild", "-store", dir, "-o", "dry-run", "-strategy", strategy); code != exitOK {
					t.Fatalf("dry-run failed: %s", errOut)
				}
				if got := treeHash(t, dir); got != damaged {
					t.Fatal("dry-run modified the store")
				}

				out, errOut, code := runCtl(t, "rebuild", "-store", dir, "-strategy", strategy, "-progress")
				if code != exitOK {
					t.Fatalf("rebuild failed (%d): %s", code, errOut)
				}
				wantChunks := len(kill) * 4 * stripes // rows=4 at p=5
				if !strings.Contains(out, fmt.Sprintf("rebuilt : %d chunks", wantChunks)) {
					t.Errorf("rebuild output missing chunk count:\n%s", out)
				}
				if !strings.Contains(out, "state : clean") {
					t.Errorf("rebuild did not report a clean store:\n%s", out)
				}
				if !strings.Contains(errOut, "100% complete") {
					t.Errorf("progress never reached 100%%:\n%s", errOut)
				}
				if _, _, code := runCtl(t, "status", "-store", dir); code != exitOK {
					t.Fatalf("status after rebuild = %d, want clean", code)
				}
				checkGroundTruth(t, dir, codeName, stripes)
			})
		}
	}
}

// TestScrubRecoversSilentCorruption flips one payload byte in place —
// invisible to the header-only scan — and expects `rebuild -o scrub -o
// priority=vulnerable` to find and repair it.
func TestScrubRecoversSilentCorruption(t *testing.T) {
	const stripes = 2
	dir := initStore(t, "star", stripes)
	victim := store.Addr{Disk: 3, Stripe: 1, Chunk: 2}
	path := filepath.Join(dir, store.ChunkPath(victim))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[store.HeaderSize+5] ^= 0x08
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// The plain scan misses payload rot entirely.
	if _, _, code := runCtl(t, "status", "-store", dir); code != exitOK {
		t.Fatal("header-only status flagged payload rot")
	}
	if _, _, code := runCtl(t, "status", "-store", dir, "-o", "scrub"); code != exitDamaged {
		t.Fatal("scrub status missed payload rot")
	}
	out, errOut, code := runCtl(t, "rebuild", "-store", dir, "-o", "scrub", "-o", "priority=vulnerable")
	if code != exitOK {
		t.Fatalf("scrub rebuild failed (%d): %s", code, errOut)
	}
	if !strings.Contains(out, "(0 missing, 1 corrupt)") {
		t.Errorf("scan line does not report the corrupt chunk:\n%s", out)
	}
	checkGroundTruth(t, dir, "star", stripes)
}

// golden compares got against testdata/<name>.golden, rewriting with
// -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestGoldenOutput pins the user-facing text of status and the
// read-only rebuild modes byte for byte. The store is deterministic
// (fixed seed, fixed kills) and the output carries no paths or
// timestamps, so any drift is a real interface change.
func TestGoldenOutput(t *testing.T) {
	const stripes = 4
	dir := initStore(t, "star", stripes)

	out, _, code := runCtl(t, "status", "-store", dir)
	if code != exitOK {
		t.Fatalf("status = %d", code)
	}
	golden(t, "status_clean", out)

	for _, d := range []int{1, 6} {
		if err := os.RemoveAll(filepath.Join(dir, store.DiskDirName(d))); err != nil {
			t.Fatal(err)
		}
	}
	out, _, code = runCtl(t, "status", "-store", dir)
	if code != exitDamaged {
		t.Fatalf("status = %d, want %d", code, exitDamaged)
	}
	golden(t, "status_degraded", out)

	out, _, code = runCtl(t, "rebuild", "-store", dir, "-o", "check-only")
	if code != exitDamaged {
		t.Fatalf("check-only = %d, want %d", code, exitDamaged)
	}
	golden(t, "rebuild_check_only", out)

	out, _, code = runCtl(t, "rebuild", "-store", dir, "-o", "dry-run")
	if code != exitOK {
		t.Fatalf("dry-run = %d", code)
	}
	golden(t, "rebuild_dry_run", out)

	// The executed rebuild is deterministic too: counts, no timings.
	out, _, code = runCtl(t, "rebuild", "-store", dir)
	if code != exitOK {
		t.Fatalf("rebuild = %d", code)
	}
	golden(t, "rebuild_full", out)
}

// TestUsageErrors walks the rejection surface: every bad invocation
// exits 1 with a diagnostic on stderr and never touches stdout.
func TestUsageErrors(t *testing.T) {
	dir := initStore(t, "star", 1)
	cases := []struct {
		name string
		args []string
	}{
		{"no-args", nil},
		{"unknown-command", []string{"destroy", "-store", "x"}},
		{"init-no-store", []string{"init"}},
		{"init-bad-code", []string{"init", "-store", filepath.Join(t.TempDir(), "a"), "-code", "raid9"}},
		{"init-refuses-overwrite", []string{"init", "-store", dir}},
		{"status-no-store", []string{"status"}},
		{"status-missing-store", []string{"status", "-store", filepath.Join(t.TempDir(), "nope")}},
		{"status-unknown-option", []string{"status", "-store", dir, "-o", "chekc-only"}},
		{"rebuild-unknown-option", []string{"rebuild", "-store", dir, "-o", "fast"}},
		{"rebuild-bad-strategy", []string{"rebuild", "-store", dir, "-strategy", "psychic"}},
		{"rebuild-bad-policy", []string{"rebuild", "-store", dir, "-policy", "no-such"}}, // not a flag: the engine has no cache policy to choose
		{"rebuild-bad-priority", []string{"rebuild", "-store", dir, "-o", "priority=fastest"}},
		{"rebuild-conflicting-modes", []string{"rebuild", "-store", dir, "-o", "check-only", "-o", "dry-run"}},
		{"rebuild-bad-bool", []string{"rebuild", "-store", dir, "-o", "scrub=maybe"}},
		{"duplicate-option", []string{"rebuild", "-store", dir, "-o", "scrub", "-o", "scrub"}},
		{"rebuild-bad-rate", []string{"rebuild", "-store", dir, "-o", "rate-limit=0"}},
		{"rebuild-resume-check-only", []string{"rebuild", "-store", dir, "-o", "resume", "-o", "check-only"}},
		{"daemon-unknown-option", []string{"daemon", "-store", dir, "-o", "check-only"}},
		{"daemon-bad-retries", []string{"daemon", "-store", dir, "-o", "retries=lots"}},
		{"daemon-bad-rate", []string{"daemon", "-store", dir, "-o", "rate-limit=-3"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, errOut, code := runCtl(t, tc.args...)
			if code != exitErr {
				t.Errorf("exit = %d, want %d (stderr: %s)", code, exitErr, errOut)
			}
			if errOut == "" {
				t.Error("no diagnostic on stderr")
			}
			if out != "" {
				t.Errorf("usage error wrote to stdout: %q", out)
			}
		})
	}
}

// TestInitRerunAfterFailure pins that init writes its manifest last: an
// init that fails partway (a plain file where disk-003's directory
// should go) leaves no manifest, so once the cause is gone a rerun of the
// same init is not refused and leaves the store a clean init leaves.
func TestInitRerunAfterFailure(t *testing.T) {
	args := func(dir string) []string {
		return []string{"init", "-store", dir, "-code", "star", "-p", "5", "-stripes", "4", "-chunk", "128", "-seed", "42"}
	}
	clean := filepath.Join(t.TempDir(), "clean")
	if _, errOut, code := runCtl(t, args(clean)...); code != exitOK {
		t.Fatalf("clean init failed (%d): %s", code, errOut)
	}
	dir := filepath.Join(t.TempDir(), "array")
	blocker := filepath.Join(dir, store.DiskDirName(3))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blocker, []byte("not a disk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, errOut, code := runCtl(t, args(dir)...); code != exitErr || errOut == "" {
		t.Fatalf("init over a plain file at %s: exit %d, stderr %q; want exit %d and a diagnostic", store.DiskDirName(3), code, errOut, exitErr)
	}
	if _, err := store.ReadManifest(dir); err == nil {
		t.Fatal("a failed init left a manifest")
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if _, errOut, code := runCtl(t, args(dir)...); code != exitOK {
		t.Fatalf("rerun after the failed init (%d): %s", code, errOut)
	}
	if treeHash(t, dir) != treeHash(t, clean) {
		t.Error("the rerun's store differs from a clean init's")
	}
}

// TestHelpExitsZero pins that explicit help requests succeed.
func TestHelpExitsZero(t *testing.T) {
	for _, arg := range []string{"help", "-h", "--help"} {
		if _, errOut, code := runCtl(t, arg); code != exitOK || !strings.Contains(errOut, "usage:") {
			t.Errorf("%s: exit %d, stderr %q", arg, code, errOut)
		}
	}
}

// TestRebuildResumeAfterInterrupt pins the -o resume lifecycle end to
// end: an interrupted journaled rebuild exits 3 with a terminal summary
// and keeps the journal; the rerun resumes, converges byte-exact, and
// removes it.
func TestRebuildResumeAfterInterrupt(t *testing.T) {
	const stripes = 3
	dir := initStore(t, "star", stripes)
	for _, d := range []int{0, 2, 4} {
		if err := os.RemoveAll(filepath.Join(dir, store.DiskDirName(d))); err != nil {
			t.Fatal(err)
		}
	}

	stopped := make(chan struct{})
	close(stopped)
	testStop = stopped
	defer func() { testStop = nil }()
	out, errOut, code := runCtl(t, "rebuild", "-store", dir, "-o", "resume")
	if code != exitInterrupted {
		t.Fatalf("interrupted rebuild = %d, want %d (stderr: %s)", code, exitInterrupted, errOut)
	}
	if !strings.Contains(out, "interrupted :") || !strings.Contains(out, "rerun with -o resume") {
		t.Fatalf("interrupt summary missing:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, journalName)); err != nil {
		t.Fatalf("journal missing after interrupt: %v", err)
	}

	testStop = nil
	out, errOut, code = runCtl(t, "rebuild", "-store", dir, "-o", "resume")
	if code != exitOK {
		t.Fatalf("resume = %d (stderr: %s)", code, errOut)
	}
	if !strings.Contains(out, "state : clean") {
		t.Fatalf("resume did not report clean:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, journalName)); !os.IsNotExist(err) {
		t.Fatalf("journal survives completed resume: %v", err)
	}
	checkGroundTruth(t, dir, "star", stripes)
}

// TestRebuildRateLimited pins that a throttled rebuild still converges
// (the limit is set far above the store size, so the test stays fast).
func TestRebuildRateLimited(t *testing.T) {
	const stripes = 2
	dir := initStore(t, "star", stripes)
	if err := os.RemoveAll(filepath.Join(dir, store.DiskDirName(5))); err != nil {
		t.Fatal(err)
	}
	_, errOut, code := runCtl(t, "rebuild", "-store", dir, "-o", "rate-limit=100000000")
	if code != exitOK {
		t.Fatalf("rate-limited rebuild = %d: %s", code, errOut)
	}
	checkGroundTruth(t, dir, "star", stripes)
}

// TestDaemonWatchesAndExits pins the daemon happy path: scan one,
// repair, scan two confirms clean, exit at max-scans with the journal
// cleaned up and the store byte-exact.
func TestDaemonWatchesAndExits(t *testing.T) {
	const stripes = 2
	dir := initStore(t, "star", stripes)
	if err := os.RemoveAll(filepath.Join(dir, store.DiskDirName(3))); err != nil {
		t.Fatal(err)
	}
	out, errOut, code := runCtl(t, "daemon", "-store", dir, "-interval", "1ms", "-o", "max-scans=2")
	if code != exitOK {
		t.Fatalf("daemon = %d: %s", code, errOut)
	}
	if !strings.Contains(out, "scans : 2 (1 rebuilds, 0 retries)") {
		t.Fatalf("daemon summary:\n%s", out)
	}
	if !strings.Contains(errOut, "rebuilt") || !strings.Contains(errOut, "clean") {
		t.Fatalf("daemon log:\n%s", errOut)
	}
	if _, err := os.Stat(filepath.Join(dir, journalName)); !os.IsNotExist(err) {
		t.Fatalf("journal survives daemon completion: %v", err)
	}
	checkGroundTruth(t, dir, "star", stripes)
}

// TestDaemonGracefulSignalExit pins the shutdown path: a pending stop
// request exits 3 with the graceful-shutdown summary.
func TestDaemonGracefulSignalExit(t *testing.T) {
	dir := initStore(t, "star", 1)
	stopped := make(chan struct{})
	close(stopped)
	testStop = stopped
	defer func() { testStop = nil }()
	out, errOut, code := runCtl(t, "daemon", "-store", dir)
	if code != exitInterrupted {
		t.Fatalf("daemon under stop = %d, want %d: %s", code, exitInterrupted, errOut)
	}
	if !strings.Contains(out, "shutdown : graceful") {
		t.Fatalf("daemon shutdown summary:\n%s", out)
	}
}

// httpGet fetches a telemetry endpoint and checks the status code.
func httpGet(t *testing.T, url string, wantStatus int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d\n%s", url, resp.StatusCode, wantStatus, body)
	}
	return string(body)
}

// TestDaemonListenServesEndpoints boots `daemon -listen 127.0.0.1:0`
// against a damaged store, scrapes /metrics, /progress and /healthz
// mid-run through the testListenReady seam, then stops the daemon and
// checks the graceful exit tears the listener down.
func TestDaemonListenServesEndpoints(t *testing.T) {
	const stripes = 2
	dir := initStore(t, "star", stripes)
	if err := os.RemoveAll(filepath.Join(dir, store.DiskDirName(4))); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	testStop = stop
	addrCh := make(chan string, 1)
	testListenReady = func(a string) { addrCh <- a }
	defer func() { testStop = nil; testListenReady = nil }()

	type result struct {
		out, errOut string
		code        int
	}
	resCh := make(chan result, 1)
	go func() {
		var out, errb bytes.Buffer
		code := run([]string{"daemon", "-store", dir, "-interval", "1h", "-listen", "127.0.0.1:0"}, &out, &errb)
		resCh <- result{out.String(), errb.String(), code}
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never announced its telemetry address")
	}

	// Wait for the first pass to repair the killed disk and the daemon
	// to settle into watching; the counters are then stable to assert on.
	var snap struct {
		Phase    string `json:"phase"`
		Scans    int    `json:"scans"`
		Rebuilds int    `json:"rebuilds"`
		Percent  int    `json:"percent"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		body := httpGet(t, base+"/progress", http.StatusOK)
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("decode /progress: %v\n%s", err, body)
		}
		if snap.Phase == "watching" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reached the watching phase: %+v", snap)
		}
		time.Sleep(time.Millisecond)
	}
	if snap.Scans != 1 || snap.Rebuilds != 1 || snap.Percent != 100 {
		t.Fatalf("/progress after the first pass = %+v, want 1 scan, 1 rebuild, 100%%", snap)
	}

	metrics := httpGet(t, base+"/metrics", http.StatusOK)
	for _, want := range []string{
		fmt.Sprintf("fbf_rebuild_stripes_done %d\n", stripes),
		"fbf_daemon_scans 1\n",
		"fbf_daemon_rebuilds 1\n",
		`fbf_store_ops{op="read"}`,
		`fbf_store_op_seconds_bucket{op="write",le="+Inf"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	if body := httpGet(t, base+"/healthz", http.StatusOK); !strings.Contains(body, "ok") {
		t.Fatalf("/healthz body = %q", body)
	}

	close(stop)
	var r result
	select {
	case r = <-resCh:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after the stop request")
	}
	if r.code != exitInterrupted {
		t.Fatalf("stopped daemon exited %d, want %d\nstdout:\n%s\nstderr:\n%s", r.code, exitInterrupted, r.out, r.errOut)
	}
	if !strings.Contains(r.out, "shutdown : graceful") {
		t.Fatalf("daemon shutdown summary:\n%s", r.out)
	}
	if !strings.Contains(r.errOut, "serving telemetry on") {
		t.Fatalf("daemon never logged its telemetry address:\n%s", r.errOut)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("telemetry server still answering after daemon exit")
	}
	checkGroundTruth(t, dir, "star", stripes)
}

// TestDaemonListenSummaryUnchanged pins the zero-overhead contract at
// the CLI surface: over identical stores, the stdout summary of a
// -listen daemon is byte-identical to the plain daemon's — telemetry
// adds a stderr line and an HTTP server, never different output.
func TestDaemonListenSummaryUnchanged(t *testing.T) {
	runOnce := func(extra ...string) string {
		const stripes = 2
		dir := initStore(t, "star", stripes)
		if err := os.RemoveAll(filepath.Join(dir, store.DiskDirName(3))); err != nil {
			t.Fatal(err)
		}
		args := append([]string{"daemon", "-store", dir, "-interval", "1ms", "-o", "max-scans=2"}, extra...)
		out, errOut, code := runCtl(t, args...)
		if code != exitOK {
			t.Fatalf("daemon %v = %d: %s", extra, code, errOut)
		}
		checkGroundTruth(t, dir, "star", stripes)
		return out
	}
	plain := runOnce()
	listened := runOnce("-listen", "127.0.0.1:0")
	if plain != listened {
		t.Fatalf("-listen changed the stdout summary:\n--- plain ---\n%s\n--- listen ---\n%s", plain, listened)
	}
}
