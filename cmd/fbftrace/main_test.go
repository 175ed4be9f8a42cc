package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMain is the first argument that makes the test binary run
// fbftrace's main on the arguments after it instead of the tests, so a
// test can watch a whole invocation, exit status included.
const runMain = "fbftrace-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMain {
		os.Args = append([]string{"fbftrace"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// summarize writes trace to a JSONL file and runs fbftrace on it.
func summarize(t *testing.T, trace string) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(os.Args[0], runMain, path).CombinedOutput()
	return string(out), err
}

// TestEmptyTraceFails pins that a JSONL trace with no events fails the
// summary, as -validate fails an empty Chrome trace. It used to print
// an all-zero phase table and exit 0, so a truncated capture read as an
// idle run.
func TestEmptyTraceFails(t *testing.T) {
	for name, trace := range map[string]string{"empty": "", "blank lines": "\n\n"} {
		t.Run(name, func(t *testing.T) {
			out, err := summarize(t, trace)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() == 0 {
				t.Fatalf("fbftrace exited with %v, want a nonzero status:\n%s", err, out)
			}
			if !strings.Contains(out, "run.jsonl: no events") {
				t.Errorf("output does not say the trace has no events:\n%s", out)
			}
			if strings.Contains(out, "phase time") {
				t.Errorf("a summary was printed:\n%s", out)
			}
		})
	}
}

// TestTraceSummarized pins that a trace with one event is summarized.
func TestTraceSummarized(t *testing.T) {
	out, err := summarize(t, `{"ph":"X","group":"disks","id":3,"ts":0,"dur":1000,"cat":"io","name":"read","args":{}}`+"\n")
	if err != nil || !strings.Contains(out, "trace: 1 events") {
		t.Fatalf("fbftrace: %v\n%s", err, out)
	}
}
