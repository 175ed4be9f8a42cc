package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMain is the first argument that makes the test binary run fbfsim's
// main on the arguments after it instead of the tests, so a test can
// watch a whole invocation, exit status included.
const runMain = "fbfsim-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMain {
		os.Args = append([]string{"fbfsim"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagLeavesOutputsAlone pins that a rejected flag fails the run
// before any output path is created: creating one truncates it, so a
// check made after that would cost the caller an old trace.
func TestBadFlagLeavesOutputsAlone(t *testing.T) {
	old := filepath.Join(t.TempDir(), "old.json")
	const keep = "keep-me\n"
	if err := os.WriteFile(old, []byte(keep), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(os.Args[0], runMain, "-trace-out", old, "-metrics-interval", "0").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("fbfsim -metrics-interval 0 exited with %v, want a nonzero status:\n%s", err, out)
	}
	if !strings.Contains(string(out), "bad -metrics-interval 0") {
		t.Errorf("output does not name the bad flag:\n%s", out)
	}
	got, err := os.ReadFile(old)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != keep {
		t.Fatalf("-trace-out file is now %q, want it untouched (%q)", got, keep)
	}
}
