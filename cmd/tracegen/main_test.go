package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMain is the first argument that makes the test binary run
// tracegen's main on the arguments after it instead of the tests, so a
// test can watch a whole invocation, exit status included.
const runMain = "tracegen-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMain {
		os.Args = append([]string{"tracegen"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tracegen runs tracegen with a four-group trace plus args and returns
// its combined output and exit error.
func tracegen(args ...string) (string, error) {
	args = append([]string{runMain, "-groups", "4", "-stripes", "64"}, args...)
	out, err := exec.Command(os.Args[0], args...).CombinedOutput()
	return string(out), err
}

// TestSizeNeedsFixedDist pins that -size fails the run unless -dist
// fixed reads it; the other distributions used to ignore it silently.
func TestSizeNeedsFixedDist(t *testing.T) {
	for _, dist := range []string{"uniform", "geometric"} {
		out, err := tracegen("-dist", dist, "-size", "2")
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Fatalf("tracegen -dist %s -size 2 exited with %v, want a nonzero status:\n%s", dist, err, out)
		}
		if want := "bad -size: only -dist fixed uses it, not -dist " + dist; !strings.Contains(out, want) {
			t.Errorf("output does not say %q:\n%s", want, out)
		}
	}
	out, err := tracegen("-dist", "fixed", "-size", "2")
	if err != nil || strings.Count(out, "\n") < 4 {
		t.Fatalf("tracegen -dist fixed -size 2: %v\n%s", err, out)
	}
}
