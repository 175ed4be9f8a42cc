package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
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
// element after the outputs were created. An unknown code, policy or
// prime is another: the run used to find it only when it built the
// code or the cache. An unknown figure or table is a third: the run used
// to find it only when it came to draw one. A size of zero or less is a
// fourth: the run used to drop it and simulate the default instead.
func TestBadFlagLeavesOutputsAlone(t *testing.T) {
	cases := []struct {
		out  string // output flag pointed at the old file
		args []string
		want string
	}{
		{"trace-out", []string{"-metrics-interval", "0"}, "bad -metrics-interval 0"},
		{"trace-out", []string{"-groups", "-5"}, "bad -groups -5: must be > 0"},
		{"metrics-out", []string{"-workers", "-3"}, "bad -workers -3: must be > 0"},
		{"trace-jsonl", []string{"-stripes", "0"}, "bad -stripes 0: must be > 0"},
		{"trace-jsonl", []string{"-codes", ","}, "bad -codes: empty list"},
		{"trace-jsonl", []string{"-p", ","}, "bad -p: empty list"},
		{"trace-jsonl", []string{"-policies", ","}, "bad -policies: empty list"},
		{"metrics-out", []string{"-sizes", ","}, "bad -sizes: empty list"},
		{"trace-jsonl", []string{"-codes", "lrc"}, `bad -codes: codes: unknown code "lrc"`},
		{"trace-jsonl", []string{"-p", "4"}, "bad -p: codes: star requires prime p, got 4"},
		{"trace-jsonl", []string{"-policies", "nosuch"}, `bad -policies: cache: unknown policy "nosuch"`},
		{"trace-jsonl", []string{"-policies", "lru2"}, `bad -policies: cache: unknown policy "lru2"`},
		{"metrics-out", []string{"-dist", "nosuch"}, `bad -dist: trace: unknown size distribution "nosuch"`},
		{"pprof-cpu", []string{"-fig", "12"}, "unknown figure 12 (have 8, 9, 10, 11)"},
		{"pprof-mem", []string{"-table", "6"}, "unknown table 6 (have 4, 5)"},
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

// TestArtefactAxes pins the axes each artefact of the full evaluation
// takes when -codes and -p are left unset — Figures 8 and 10 and the
// scheme ablation the paper's four codes at P = 7, 11, 13; Figures 9 and
// 11 TIP at P = 5, 7, 11, 13; Table IV P = 5, 7, 11, 13; the online and
// SOR/DOR tables TIP at P = 13 — and that -p then replaces every one of
// them. Each section lists its panels, Table IV blocks or table rows as
// code/p (a Table IV block as P=p).
func TestArtefactAxes(t *testing.T) {
	paper := []string{"star", "triplestar", "tip", "hdd1"}
	tip := []string{"tip"}
	cross := func(codes []string, primes ...int) []string {
		var out []string
		for _, code := range codes {
			for _, p := range primes {
				out = append(out, fmt.Sprintf("%s/%d", code, p))
			}
		}
		return out
	}
	cases := []struct {
		name string
		args []string
		want map[string][]string // section title prefix -> labels
	}{
		{"defaults", nil, map[string][]string{
			"FIG8:":            cross(paper, 7, 11, 13),
			"FIG9:":            cross(tip, 5, 7, 11, 13),
			"FIG10:":           cross(paper, 7, 11, 13),
			"FIG11:":           cross(tip, 5, 7, 11, 13),
			"TABLE IV:":        {"P=5", "P=7", "P=11", "P=13"},
			"ABLATION: Unique": cross(paper, 7, 11, 13),
			"ONLINE RECOVERY:": {"tip/13", "tip/13"},
			"ABLATION: Stripe": {"tip/13", "tip/13"},
		}},
		{"p7", []string{"-p", "7"}, map[string][]string{
			"FIG8:":            cross(paper, 7),
			"FIG9:":            cross(tip, 7),
			"FIG10:":           cross(paper, 7),
			"FIG11:":           cross(tip, 7),
			"TABLE IV:":        {"P=7"},
			"ABLATION: Unique": cross(paper, 7),
			"ONLINE RECOVERY:": {"tip/7", "tip/7"},
			"ABLATION: Stripe": {"tip/7", "tip/7"},
		}},
	}
	panel := regexp.MustCompile(`^-- (\S+) \(P=(\d+)\) --$`)
	block := regexp.MustCompile(`^P = (\d+)$`)
	row := regexp.MustCompile(`^(star|triplestar|tip|hdd1)\s+(\d+)\s`)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := append([]string{runMain, "-groups", "16", "-stripes", "256", "-workers", "4", "-sizes", "1", "-policies", "lru,fbf"}, c.args...)
			out, err := exec.Command(os.Args[0], args...).CombinedOutput()
			if err != nil {
				t.Fatalf("fbfsim %v: %v\n%s", args[1:], err, out)
			}
			got := map[string][]string{}
			var section string
			for _, line := range strings.Split(string(out), "\n") {
				if title, ok := strings.CutPrefix(line, "== "); ok {
					section = ""
					for prefix := range c.want {
						if strings.HasPrefix(title, prefix) {
							section = prefix
						}
					}
					continue
				}
				if m := panel.FindStringSubmatch(line); m != nil {
					got[section] = append(got[section], m[1]+"/"+m[2])
				} else if m := block.FindStringSubmatch(line); m != nil {
					got[section] = append(got[section], "P="+m[1])
				} else if m := row.FindStringSubmatch(line); m != nil {
					got[section] = append(got[section], m[1]+"/"+m[2])
				}
			}
			delete(got, "")
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("artefact axes:\n got %v\nwant %v\noutput:\n%s", got, c.want, out)
			}
		})
	}
}

// TestFullEvaluationSweepsEachGridOnce pins that the full evaluation
// simulates each figure grid once: its -progress reports one sweep total
// per simulated artefact group — the codes grid (Figures 8 and 10 and
// Table V), the TIP grid (Figures 9 and 11), Table IV, the scheme
// ablation, online recovery and the SOR/DOR table — in that order.
func TestFullEvaluationSweepsEachGridOnce(t *testing.T) {
	cmd := exec.Command(os.Args[0], runMain, "-progress", "-groups", "24", "-stripes", "512", "-workers", "4", "-sizes", "1,2")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if out, err := cmd.Output(); err != nil {
		t.Fatalf("fbfsim: %v\n%s%s", err, out, stderr.String())
	}
	total := regexp.MustCompile(`^fbfsim: (\d+)/(\d+) runs$`)
	var got []string
	for _, line := range strings.FieldsFunc(stderr.String(), func(r rune) bool { return r == '\r' || r == '\n' }) {
		if m := total.FindStringSubmatch(line); m != nil && m[1] == m[2] {
			got = append(got, m[1])
		}
	}
	// 4 codes × 3 primes × 5 policies × 2 sizes; TIP × 4 primes × 5 × 2;
	// 4 codes × 4 primes; 4 × 3; 5 policies; 5 policies.
	want := []string{"120", "40", "16", "12", "5", "5"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sweep totals %v, want %v", got, want)
	}
}
