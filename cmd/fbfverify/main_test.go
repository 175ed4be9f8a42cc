package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"fbf/internal/store"
)

// runMain is the first argument that makes the test binary run
// fbfverify's main on the arguments after it instead of the tests, so a
// test can watch a whole invocation, exit status included.
const runMain = "fbfverify-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMain {
		os.Args = append([]string{"fbfverify"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// small keeps a run small, so a row whose flag is not rejected runs in
// milliseconds.
var small = []string{"-codes", "tip", "-p", "5", "-strategies", "looped", "-policies", "lru", "-caps", "1", "-steps", "10", "-engine=false"}

// mustReject runs fbfverify on small with flag set to value and fails
// the test unless the run exits nonzero, says want and prints no "ok"
// line.
func mustReject(t *testing.T, flag, value, want string) {
	t.Helper()
	args := append(append([]string{runMain}, small...), "-"+flag, value)
	out, err := exec.Command(os.Args[0], args...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("fbfverify -%s %s exited with %v, want a nonzero status:\n%s", flag, value, err, out)
	}
	if !strings.Contains(string(out), want) {
		t.Errorf("output does not say %q:\n%s", want, out)
	}
	if strings.Contains(string(out), "ok   ") {
		t.Errorf("a check ran before the rejection:\n%s", out)
	}
}

// TestEmptyListFails pins that an empty list flag fails the run. Each
// one used to skip its checks (-strategies: sweep all three) and still
// print "all checks passed", so a CI gate passed having checked nothing.
func TestEmptyListFails(t *testing.T) {
	for _, name := range []string{"codes", "p", "strategies", "policies", "caps"} {
		t.Run(name, func(t *testing.T) {
			mustReject(t, name, ",", "bad -"+name+": empty list")
		})
	}
}

// TestBadNameFails pins that a name no check can run fails the run
// before the first check. A policy without a reference model used to
// fail only its own cache checks, after the stripe sweeps had passed,
// and a bad code or prime only after the good ones ahead of it had been
// swept.
func TestBadNameFails(t *testing.T) {
	for _, c := range []struct{ flag, value, want string }{
		{"policies", "opt", `bad -policies: no reference model for "opt"`},
		{"policies", "nosuch", `bad -policies: no reference model for "nosuch"`},
		{"policies", "lru2", `bad -policies: no reference model for "lru2"`},
		{"codes", "tip,nosuch", `bad -codes: codes: unknown code "nosuch"`},
		{"p", "5,4", "bad -p: codes: tip requires prime p, got 4"},
	} {
		t.Run(c.flag+"="+c.value, func(t *testing.T) {
			mustReject(t, c.flag, c.value, c.want)
		})
	}
}

// TestBadSizeFails pins that a size no check can use fails the run
// before the first check. -chunk 0 used to pass the stripe sweep (which
// reads it as 64) and then panic in the engine pass; a negative -caps
// entry failed only its own cache check, after the ones ahead of it.
// -steps 0 or below ran each cache check at the checker's default of
// 10 000 steps.
func TestBadSizeFails(t *testing.T) {
	for _, c := range []struct{ flag, value, want string }{
		{"chunk", "0", "bad -chunk: non-positive size 0"},
		{"chunk", "-1", "bad -chunk: non-positive size -1"},
		{"steps", "0", "bad -steps: non-positive count 0"},
		{"steps", "-3", "bad -steps: non-positive count -3"},
		{"caps", "1,-1", "bad -caps: negative capacity -1"},
	} {
		t.Run(c.flag+"="+c.value, func(t *testing.T) {
			mustReject(t, c.flag, c.value, c.want)
		})
	}
}

// flipWrite corrupts one byte of the n-th chunk the engine writes. The
// engine writes a stripe only once it has passed the zero test, so the
// lie gets past the engine's own check: only the pass's comparison with
// the seed can see it.
type flipWrite struct {
	store.Backend
	n, written int
}

func (f *flipWrite) WriteChunk(a store.Addr, data []byte) error {
	if f.written++; f.written == f.n {
		data = bytes.Clone(data)
		data[len(data)/2] ^= 0x01
	}
	return f.Backend.WriteChunk(a, data)
}

// TestEnginePass runs the engine pass on the four codes at p=5, then
// again with one written byte flipped, once in the partial-stripe
// rebuild (single chains) and once in the three-dead-disks one
// (decoded): each flip must fail the pass on the flipped chunk, which
// shows that the pass compares the bytes itself rather than trusting the
// engine's verdict.
func TestEnginePass(t *testing.T) {
	for _, name := range []string{"star", "triplestar", "tip", "hdd1"} {
		t.Run(name, func(t *testing.T) {
			traced, killed, err := enginePass(name, 5, 64, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if traced == 0 || killed == 0 {
				t.Fatalf("%d chunks of the trace and %d of the dead disks rebuilt; the pass checked an order it never ran", traced, killed)
			}
			for _, n := range []int{1, traced + 1} {
				wrap := func(b store.Backend) store.Backend { return &flipWrite{Backend: b, n: n} }
				if _, _, err := enginePass(name, 5, 64, 1, wrap); err == nil || !strings.Contains(err.Error(), "differs from the stripe recomputed from the seed") {
					t.Fatalf("write %d flipped: pass returned %v, want the comparison to fail", n, err)
				}
			}
		})
	}
}
