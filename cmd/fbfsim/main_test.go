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
// check made after that would cost the caller an old trace. An empty
// list flag is one such rejection; the run used to index its first
// element after the outputs were created.
func TestBadFlagLeavesOutputsAlone(t *testing.T) {
	cases := []struct {
		out  string // output flag pointed at the old file
		args []string
		want string
	}{
		{"trace-out", []string{"-metrics-interval", "0"}, "bad -metrics-interval 0"},
		{"trace-jsonl", []string{"-codes", ","}, "bad -codes: empty list"},
		{"trace-jsonl", []string{"-p", ","}, "bad -p: empty list"},
		{"trace-jsonl", []string{"-policies", ","}, "bad -policies: empty list"},
		{"metrics-out", []string{"-sizes", ","}, "bad -sizes: empty list"},
	}
	for _, c := range cases {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			old := filepath.Join(t.TempDir(), "old.json")
			const keep = "keep-me\n"
			if err := os.WriteFile(old, []byte(keep), 0o644); err != nil {
				t.Fatal(err)
			}
			args := append([]string{runMain, "-" + c.out, old}, c.args...)
			out, err := exec.Command(os.Args[0], args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() == 0 {
				t.Fatalf("fbfsim %v exited with %v, want a nonzero status:\n%s", c.args, err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Errorf("output does not say %q:\n%s", c.want, out)
			}
			got, err := os.ReadFile(old)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != keep {
				t.Fatalf("-%s file is now %q, want it untouched (%q)", c.out, got, keep)
			}
		})
	}
}
