// Command bench is the repository's benchmark: a single-process,
// single-goroutine, closed-loop measurement of the real-bytes rebuild
// (rebuild.RunService over a store.Backend) and, as a guard, of the
// event simulator (rebuild.Run). README.md says what each workload and
// metric is for; ../BENCHMARK.json is the contract the numbers are
// judged by.
//
//	go run -C bench . -seed 1                        # every workload, end to end
//	go run -C bench . -workload mem-kill3 -trace 1   # one workload, per layer
//	go run -C bench . -compare a.json b.json         # two -out files
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	out      string
	traceOut string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var compare bool
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all): mem-kill3, dir-kill3-journal, mem-partial, sim-sor")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&o.seconds, "seconds", 12, "seconds of timed repetitions per workload; the default is BENCHMARK.json's run_seconds")
	fs.IntVar(&trace, "trace", 0, "1: the traced run, which prints the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.workdir, "workdir", "", "scratch directory for the dir workload; must be empty or absent, is removed on exit (default: a new directory under the current one)")
	fs.StringVar(&o.out, "out", "", "write the full report (header, every sample) as JSON to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "traced run: write the spans as JSON lines to this file")
	fs.BoolVar(&compare, "compare", false, "compare two -out files given as arguments against BENCHMARK.json's bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	var err error
	failed := false
	switch {
	case compare && fs.NArg() == 2:
		failed, err = compareReports(stdout, fs.Arg(0), fs.Arg(1))
	case compare || fs.NArg() > 0:
		err = errors.New("usage: bench [flags] | bench -compare A.json B.json")
	default:
		failed, err = measure(o, paperScale, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if failed {
		return 1
	}
	return 0
}

// report is the -out file.
type report struct {
	Header    header           `json:"header"`
	Workloads []workloadReport `json:"workloads"`
}

type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	CalibMs    float64 `json:"host.calib_ms"`
	TotalWallS float64 `json:"total_wall_s"`
}

type workloadReport struct {
	Name      string                  `json:"name"`
	Reps      int                     `json:"reps"` // timed repetitions (traced: per row)
	WallS     float64                 `json:"wall_s"`
	Attempted int                     `json:"ops_attempted"`
	Failed    int                     `json:"ops_failed"`
	Why       string                  `json:"first_failure,omitempty"`
	Metrics   map[string]metricReport `json:"metrics"`

	order []metricDef
}

type metricReport struct {
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"` // median of Values
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
	Note   string    `json:"note,omitempty"`
}

func (w *workloadReport) fill(s *metricSet) {
	w.order = s.defs
	w.Metrics = make(map[string]metricReport, len(s.defs))
	for _, d := range s.defs {
		q1, med, q3 := quartiles(s.values[d.name])
		w.Metrics[d.name] = metricReport{Unit: d.unit, Value: med, Q1: q1, Q3: q3, Values: s.values[d.name], Note: s.notes[d.name]}
	}
}

// tally sums the output checks of a workload's repetitions.
type tally struct {
	attempted, failed int
	why               string
}

// add counts one repetition's check; first is the counts of the
// configuration's first repetition, which every later one must repeat.
func (t *tally) add(s *sample, first *string) {
	t.attempted += s.attempted
	failed, why := s.failed, s.why
	if *first == "" {
		*first = s.counts()
	} else if c := s.counts(); c != *first && failed == 0 {
		failed, why = s.attempted, fmt.Sprintf("counts changed between repetitions: %s, then %s", *first, c)
	}
	t.failed += failed
	if t.why == "" {
		t.why = why
	}
}

// measure runs the selected workloads and prints the report. It returns
// true when an output check failed.
func measure(o options, sc scale, stdout io.Writer) (failed bool, err error) {
	if o.seconds <= 0 {
		return false, fmt.Errorf("-seconds %v: must be positive", o.seconds)
	}
	selected := workloads
	if o.workload != "" {
		w, err := findWorkload(o.workload)
		if err != nil {
			return false, err
		}
		selected = []*workload{w}
	}
	workdir, err := claimWorkdir(o.workdir)
	if err != nil {
		return false, err
	}
	defer func() {
		if rerr := os.RemoveAll(workdir); rerr != nil && err == nil {
			err = rerr
		}
	}()

	start := time.Now()
	tr := newTracer() // only a traced run adds to it beyond the calibration span, or writes it out
	var calibMs, xorGBps float64
	_, _ = tr.timed("chunk.xor", func() error { // calibrate cannot fail
		calibMs, xorGBps = calibrate(sc)
		return nil
	})
	rep := report{Header: header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit(),
		Seed: o.seed, Seconds: o.seconds, Traced: o.trace, CalibMs: calibMs,
	}}
	h := rep.Header
	fmt.Fprintf(stdout, "fbf bench: seed %d, %g s per workload, traced %v, nproc %d, GOMAXPROCS %d, %s, commit %s, host.calib_ms %.1f\n",
		h.Seed, h.Seconds, h.Traced, h.NProc, h.GOMAXPROCS, h.Go, h.Commit, h.CalibMs)

	for _, w := range selected {
		var wr *workloadReport
		if o.trace {
			wr, err = runTraced(w, sc, o.seed, o.seconds, workdir, tr, calibMs, xorGBps)
		} else {
			wr, err = runUntraced(w, sc, o.seed, o.seconds, workdir)
		}
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		printWorkload(stdout, wr)
		failed = failed || wr.Failed > 0
		rep.Workloads = append(rep.Workloads, *wr)
	}
	rep.Header.TotalWallS = time.Since(start).Seconds()
	fmt.Fprintf(stdout, "total wall %.1f s\n", rep.Header.TotalWallS)

	tr.end(0)
	if o.trace && o.traceOut != "" {
		if err := tr.writeJSONL(o.traceOut); err != nil {
			return false, err
		}
	}
	if o.out != "" {
		data, err := json.MarshalIndent(&rep, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	if len(rep.Workloads) == 1 {
		// The line the benchmark driver reads: last on standard output.
		line, err := resultLine(&rep.Workloads[0])
		if err != nil {
			return false, err
		}
		fmt.Fprintln(stdout, line)
	}
	return failed, nil
}

// claimWorkdir creates the scratch directory. A named one must be
// absent or empty, so that removing it on exit cannot take anything of
// the caller's (a checkout, say) with it.
func claimWorkdir(dir string) (string, error) {
	if dir == "" {
		return os.MkdirTemp(".", ".fbfbench-work-")
	}
	if entries, err := os.ReadDir(dir); err == nil && len(entries) > 0 {
		return "", fmt.Errorf("-workdir %s is not empty", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// commit names the checkout for the run header; a checkout without git
// metadata is "unknown".
func commit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// warmUp repeats the workload untimed for a fifth of the measured
// seconds, and then until a repetition is no longer a tenth faster than
// the one before it: the first few run slower, up to five times on
// mem-partial, while the heap finds its size. A repetition that takes
// the whole fifth by itself is I/O-bound and one is enough; the warm-up
// never takes longer than the measurement. It returns the last sample.
func warmUp(sub subject, seconds float64, t *tally, first *string) (sample, error) {
	var prev, s sample
	var err error
	warmed := 0.0
	for n := 1; ; n++ {
		prev = s
		if s, err = sub.rep(nil, nil); err != nil {
			return s, err
		}
		t.add(&s, first)
		warmed += s.wall.Seconds()
		settled := n == 1 || (n >= 3 && s.wall*10 >= prev.wall*9)
		if (warmed >= seconds/5 && settled) || warmed >= seconds {
			return s, nil
		}
	}
}

// runUntraced measures the end-to-end metrics of one workload: timed
// set-ups, untimed warm-up repetitions, then timed repetitions until
// they add up to the given seconds.
func runUntraced(w *workload, sc scale, seed int64, seconds float64, workdir string) (*workloadReport, error) {
	start := time.Now()
	E := newMetricSet(endToEnd)
	// Where one set-up takes milliseconds, sc.setups samples are too
	// few for a median worth comparing: keep going for sc.setupSeconds.
	var sub subject
	for spent := 0.0; len(E.values["setup_s"]) < sc.setups || (spent < sc.setupSeconds && len(E.values["setup_s"]) < 200); {
		if sub != nil {
			if err := sub.close(); err != nil {
				return nil, err
			}
			sub = nil
			runtime.GC() // drop the previous array before building the next
		}
		s, took, err := setUp(w, sc, seed, workdir)
		if err != nil {
			return nil, err
		}
		sub = s
		spent += took.Seconds()
		E.add("setup_s", took.Seconds())
	}
	defer sub.close()

	var t tally
	var first string
	if _, err := warmUp(sub, seconds, &t, &first); err != nil {
		return nil, err
	}
	reps := 0
	for timed := 0.0; timed < seconds || reps < sc.minReps; reps++ {
		s, err := sub.rep(nil, nil)
		if err != nil {
			return nil, err
		}
		t.add(&s, &first)
		timed += s.wall.Seconds()
		E.add("rebuild_mbps", float64(s.bytes)/1e6/s.wall.Seconds())
		E.add("read_amp", float64(s.reads)/float64(s.chunks))
		E.add("recon_ms_per_chunk", s.reconMs/float64(s.chunks))
	}
	wr := &workloadReport{Name: w.name, Reps: reps, Attempted: t.attempted, Failed: t.failed, Why: t.why}
	wr.fill(E)
	wr.WallS = time.Since(start).Seconds()
	return wr, sub.close()
}

// runTraced measures the per-layer metrics of one workload: after the
// warm-up, a few untraced repetitions for reference, then every row of
// rowsFor with the timing backend installed, then standalone calls into
// the layers. The seconds are shared among the rows.
func runTraced(w *workload, sc scale, seed int64, seconds float64, workdir string, tr *tracer, calibMs, xorGBps float64) (*workloadReport, error) {
	start := time.Now()
	sub, _, err := setUp(w, sc, seed, workdir)
	if err != nil {
		return nil, err
	}
	defer sub.close()

	var t tally
	var first string
	warm, err := warmUp(sub, seconds, &t, &first)
	if err != nil {
		return nil, err
	}
	rows := rowsFor(w)
	reps := min(max(int(seconds/(float64(len(rows)+1)*warm.wall.Seconds())), 1), 5)

	repeat := func(r *row, tr *tracer, first *string) ([]sample, error) {
		out := make([]sample, 0, reps)
		for i := 0; i < reps; i++ {
			s, err := sub.rep(r, tr)
			if err != nil {
				return nil, err
			}
			t.add(&s, first)
			out = append(out, s)
		}
		return out, nil
	}
	untraced, err := repeat(nil, nil, &first)
	if err != nil {
		return nil, err
	}
	byRow := map[string][]sample{}
	for i := range rows {
		// The base row must repeat the untraced counts; every other row
		// changes them and only has to agree with itself.
		rowFirst := ""
		if i == 0 {
			rowFirst = first
		}
		if byRow[rows[i].name], err = repeat(&rows[i], tr, &rowFirst); err != nil {
			return nil, fmt.Errorf("row %s: %w", rows[i].name, err)
		}
	}

	L := newMetricSet(perLayer)
	L.add("host.calib_ms", calibMs)
	L.add("chunk.xor_gbps", xorGBps)
	switch s := sub.(type) {
	case *array:
		err = arrayLayers(L, s, w, tr, untraced, byRow, xorGBps)
	case *simTrace:
		simLayers(L, untraced, byRow)
	}
	if err != nil {
		return nil, err
	}
	wr := &workloadReport{Name: w.name, Reps: reps, Attempted: t.attempted, Failed: t.failed, Why: t.why}
	wr.fill(L)
	wr.WallS = time.Since(start).Seconds()
	return wr, sub.close()
}

func printWorkload(out io.Writer, w *workloadReport) {
	fmt.Fprintf(out, "\n%s: %d reps, %.1f s wall, %d ops attempted, %d failed (ops_failed_frac %g)\n",
		w.Name, w.Reps, w.WallS, w.Attempted, w.Failed, float64(w.Failed)/float64(max(w.Attempted, 1)))
	if w.Why != "" {
		fmt.Fprintf(out, "  first failure: %s\n", w.Why)
	}
	for _, d := range w.order {
		m := w.Metrics[d.name]
		if len(m.Values) == 0 {
			continue // does not apply to this workload
		}
		fmt.Fprintf(out, "  %-36s %14.6g %-12s", d.name, m.Value, m.Unit)
		if len(m.Values) > 1 {
			fmt.Fprintf(out, " q1 %.6g q3 %.6g n %d", m.Q1, m.Q3, len(m.Values))
		}
		if m.Note != "" {
			fmt.Fprintf(out, " (%s)", m.Note)
		}
		fmt.Fprintln(out)
	}
}

// resultLine renders one workload as the driver's result object.
func resultLine(w *workloadReport) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: w.Failed == 0, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]value{}}
	for name, m := range w.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	return string(data), err
}

// benchmarkJSON is the part of ../BENCHMARK.json the program reads.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

// loadBenchmarkJSON finds BENCHMARK.json in the current directory (the
// repository root) or its parent (go run -C bench).
func loadBenchmarkJSON() (*benchmarkJSON, error) {
	var data []byte
	var err error
	for _, dir := range []string{".", ".."} {
		if data, err = os.ReadFile(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports prints, per workload and end-to-end metric, both
// medians, B's relative difference to A, the bound, and a verdict:
// worse when B's median is worse than A's by more than the bound;
// unresolved when it is not but either side's own spread is wider than
// the bound (unless every value of B beats every value of A); else ok.
// It returns true on any worse.
func compareReports(out io.Writer, pathA, pathB string) (worse bool, err error) {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		return false, err
	}
	a, err := loadReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return false, err
	}
	if a.Header.Traced || b.Header.Traced {
		return false, errors.New("end-to-end metrics are never taken from a traced run; compare two untraced -out files")
	}
	fmt.Fprintf(out, "%-18s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "diff", "bound", "verdict")
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name {
				continue
			}
			for _, m := range bj.EndToEnd {
				ma, mb := wa.Metrics[m.Name], wb.Metrics[m.Name]
				if ma.Value == 0 {
					return false, fmt.Errorf("%s: %s is missing or zero in %s", wa.Name, m.Name, pathA)
				}
				diff := (mb.Value - ma.Value) / ma.Value
				sign := 1.0 // diff's sign when B is worse
				if m.Better == "higher" {
					sign = -1
				}
				verdict := "ok"
				switch {
				case diff*sign > m.Bound:
					verdict, worse = "worse", true
				case max(spread(ma.Values), spread(mb.Values)) > m.Bound && !allBetter(ma.Values, mb.Values, sign):
					verdict = "unresolved"
				}
				fmt.Fprintf(out, "%-18s %-20s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n", wa.Name, m.Name, ma.Value, mb.Value, 100*diff, 100*m.Bound, verdict)
			}
			if wa.Failed+wb.Failed > 0 {
				fmt.Fprintf(out, "%-18s %-20s %14d %14d %26s\n", wa.Name, "ops_failed", wa.Failed, wb.Failed, "worse")
				worse = true
			}
		}
	}
	return worse, nil
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, sign float64) bool {
	for _, va := range a {
		for _, vb := range b {
			if (vb-va)*sign >= 0 {
				return false
			}
		}
	}
	return true
}
