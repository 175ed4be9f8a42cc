package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMain is the first argument that makes the test binary run
// mdscheck's main on the arguments after it instead of the tests, so a
// test can watch a whole invocation, exit status included.
const runMain = "mdscheck-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMain {
		os.Args = append([]string{"mdscheck"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// small keeps a run small, so a row whose flag is not rejected runs in
// milliseconds.
var small = []string{"-codes", "tip", "-p", "5"}

// mustReject runs mdscheck on small plus args and fails the test unless
// the run exits nonzero, says want and prints no result line.
func mustReject(t *testing.T, want string, args ...string) {
	t.Helper()
	args = append(append([]string{runMain}, small...), args...)
	out, err := exec.Command(os.Args[0], args...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("mdscheck %s exited with %v, want a nonzero status:\n%s", strings.Join(args[1:], " "), err, out)
	}
	if !strings.Contains(string(out), want) {
		t.Errorf("output does not say %q:\n%s", want, out)
	}
	if strings.Contains(string(out), "coverage") {
		t.Errorf("a check ran before the rejection:\n%s", out)
	}
}

// TestEmptyListFails pins that an empty list flag fails the run. Each
// one used to check nothing, print nothing and exit 0.
func TestEmptyListFails(t *testing.T) {
	for _, name := range []string{"p", "codes"} {
		for _, value := range []string{"", ","} {
			t.Run(name+"="+value, func(t *testing.T) {
				mustReject(t, "bad -"+name+": empty list", "-"+name, value)
			})
		}
	}
}

// TestBadFlagFails pins that a negative budget, which used to search
// unbounded, and a bad code or prime fail the run before its first
// line.
func TestBadFlagFails(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-search", "-budget", "-3"}, "bad -budget: negative budget -3"},
		{[]string{"-codes", "tip,nosuch"}, `bad -codes: codes: unknown code "nosuch"`},
		{[]string{"-p", "5,4"}, "bad -p: codes: tip requires prime p, got 4"},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			mustReject(t, c.want, c.args...)
		})
	}
}

// TestCheckRuns pins that the small run itself passes, so the
// rejections above are the flags' doing.
func TestCheckRuns(t *testing.T) {
	out, err := exec.Command(os.Args[0], append([]string{runMain}, small...)...).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "tip          p=5   disks=") || !strings.Contains(string(out), "FULL") {
		t.Fatalf("mdscheck %s: %v\n%s", strings.Join(small, " "), err, out)
	}
}
