package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"fbf/internal/store"
)

// tinyScale runs every workload's code path in milliseconds.
var tinyScale = scale{
	p: 5, chunkSize: 4 << 10,
	killStripes: 4, dirStripes: 4, partialStripes: 4,
	simGroups: 32, simStripes: 64, simWorkers: 4, simCache: 16,
	calibBytes: 16 << 20, setups: 2, minReps: 2,
}

type resultObject struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// measureTiny runs one workload through measure and decodes the
// driver's result line, which must be the last line printed.
func measureTiny(t *testing.T, o options) (resultObject, string) {
	t.Helper()
	o.seconds = 0.001
	o.workdir = filepath.Join(t.TempDir(), "work")
	var out bytes.Buffer
	failed, err := measure(o, tinyScale, &out)
	if err != nil || failed {
		t.Fatalf("measure(%+v): failed=%v err=%v\n%s", o, failed, err, out.String())
	}
	if _, err := os.Stat(o.workdir); !os.IsNotExist(err) {
		t.Errorf("workdir %s not removed: %v", o.workdir, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r resultObject
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", o.workload, r.Correct, r.Attempted, r.Failed)
	}
	return r, out.String()
}

// Every metric BENCHMARK.json names is emitted once, with its unit, by
// every workload: the end-to-end ones untraced, the per-layer ones
// traced.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	want := map[bool]map[string]string{false: {}, true: {}}
	seen := map[string]bool{}
	note := func(traced bool, n, unit string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("metric name %q is malformed or used twice", n)
		}
		seen[n] = true
		want[traced][n] = unit
	}
	hasSetup := false
	for _, m := range bj.EndToEnd {
		note(false, m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
	for _, m := range bj.PerLayer {
		note(true, m.Name, m.Unit)
	}
	tables := map[bool][]metricDef{false: endToEnd, true: perLayer}
	for traced, defs := range tables {
		got := map[string]string{}
		for _, d := range defs {
			got[d.name] = d.unit
		}
		if !reflect.DeepEqual(got, want[traced]) {
			t.Errorf("traced=%v: the program's table and BENCHMARK.json differ:\n program %v\n json    %v", traced, got, want[traced])
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}

	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || !name.MatchString(w.name) {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, bj.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			r, out := measureTiny(t, options{workload: w.name, seed: 1, trace: traced})
			if len(r.Metrics) != len(want[traced]) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(r.Metrics), len(want[traced]))
			}
			for n, unit := range want[traced] {
				m, ok := r.Metrics[n]
				if !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s: present=%v unit %q, want %q", w.name, traced, n, ok, m.Unit, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!traced && m.Value <= 0) {
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, n, m.Value)
				}
				if !traced && strings.Count(out, "\n  "+n+" ") != 1 {
					t.Errorf("%s: %s is not printed exactly once:\n%s", w.name, n, out)
				}
			}
		}
	}
}

// One seed gives identical counts; another seed changes mem-partial's
// damage.
func TestSeedDrivesInputs(t *testing.T) {
	amp := func(w string, seed int64) float64 {
		r, _ := measureTiny(t, options{workload: w, seed: seed})
		return r.Metrics["read_amp"].Value
	}
	for _, w := range []string{"mem-kill3", "mem-partial", "sim-sor"} {
		if a1, a2 := amp(w, 7), amp(w, 7); a1 != a2 {
			t.Errorf("%s: seed 7 gave read_amp %v, then %v", w, a1, a2)
		}
	}
	lost := func(seed int64) []store.Addr {
		w, _ := findWorkload("mem-partial")
		a, _, err := setUpArray(w, tinyScale, seed, "")
		if err != nil {
			t.Fatal(err)
		}
		return a.lost
	}
	if reflect.DeepEqual(lost(1), lost(2)) {
		t.Error("mem-partial: seeds 1 and 2 inject the same damage")
	}
	if !reflect.DeepEqual(lost(1), lost(1)) {
		t.Error("mem-partial: seed 1 injects different damage each time")
	}
}

// The traced run splits rebuild.run into store time and self time, and
// writes spans that nest bench.rep -> rebuild.run -> store.*.
func TestSpanSumIdentityAndSpanFile(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	for _, w := range []string{"mem-kill3", "dir-kill3-journal", "mem-partial"} {
		r, _ := measureTiny(t, options{workload: w, seed: 1, trace: true, traceOut: spans})
		v := func(n string) float64 { return r.Metrics[n].Value }
		sum := v("store.read_s") + v("store.write_s") + v("store.stat_s") + v("store.list_s") + v("rebuild.self_s")
		if run := v("rebuild.run_s"); run <= 0 || math.Abs(sum-run) > 1e-9 {
			t.Errorf("%s: store + self = %v, rebuild.run = %v", w, sum, run)
		}
		if v("store.reads") == 0 || v("store.writes") == 0 {
			t.Errorf("%s: no store calls traced", w)
		}
		if (v("journal.sync_us") > 0) != (w == "dir-kill3-journal") {
			t.Errorf("%s: journal.sync_us = %v", w, v("journal.sync_us"))
		}
	}

	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type line struct {
		ID, Parent, Rep int
		Name            string
		StartNs         int64 `json:"start_ns"`
		EndNs           int64 `json:"end_ns"`
	}
	var all []line
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("%v: %s", err, sc.Text())
		}
		all = append(all, l)
	}
	stores := 0
	for i, l := range all {
		if l.ID != i || l.Parent >= i || l.EndNs < l.StartNs {
			t.Fatalf("span %d malformed: %+v", i, l)
		}
		if strings.HasPrefix(l.Name, "store.") {
			stores++
			run := all[l.Parent]
			if run.Name != "rebuild.run" || all[run.Parent].Name != "bench.rep" || l.Rep != run.Parent {
				t.Fatalf("span %d (%s) hangs under %s, rep %d", i, l.Name, run.Name, l.Rep)
			}
		}
	}
	if stores == 0 {
		t.Error("span file has no store spans")
	}

	r, _ := measureTiny(t, options{workload: "sim-sor", seed: 1, trace: true})
	for n, m := range r.Metrics {
		if strings.HasPrefix(n, "store.") && m.Value != 0 {
			t.Errorf("sim-sor made store calls: %s = %v", n, m.Value)
		}
	}
	if r.Metrics["sim.recon_ms"].Value <= 0 {
		t.Error("sim-sor: sim.recon_ms missing")
	}
}

// flipWrites corrupts the payload written to one address.
type flipWrites struct {
	store.Backend
	victim store.Addr
}

func (b *flipWrites) WriteChunk(a store.Addr, data []byte) error {
	if a == b.victim {
		data = bytes.Clone(data)
		data[0] ^= 0xff
	}
	return b.Backend.WriteChunk(a, data)
}

// A rebuilt chunk that differs from ground truth is a failed operation.
func TestOutputCheckCatchesCorruption(t *testing.T) {
	w, _ := findWorkload("mem-kill3")
	a, _, err := setUpArray(w, tinyScale, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	a.backend = &flipWrites{Backend: a.backend, victim: a.lost[3]}
	s, err := a.rep(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	first := ""
	tl.add(&s, &first)
	if tl.failed != 1 || tl.attempted != len(a.lost) || !strings.Contains(tl.why, a.lost[3].String()) {
		t.Errorf("failed %d of %d (%q), want exactly %v", tl.failed, tl.attempted, tl.why, a.lost[3])
	}
}

func TestWorkdirMustBeEmpty(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "keep"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := measure(options{workload: "sim-sor", seconds: 0.001, workdir: dir}, tinyScale, &out); err == nil {
		t.Error("a non-empty -workdir was accepted")
	}
	if _, err := os.Stat(filepath.Join(dir, "keep")); err != nil {
		t.Errorf("the non-empty -workdir was touched: %v", err)
	}
	if code := run([]string{"-workload", "nope"}, &out, &out); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, mbps []float64) string {
		E := newMetricSet(endToEnd)
		E.add("rebuild_mbps", mbps...)
		E.add("read_amp", 10, 10, 10)
		E.add("recon_ms_per_chunk", 1, 1, 1)
		E.add("setup_s", 1, 1, 1)
		wr := workloadReport{Name: "mem-kill3"}
		wr.fill(E)
		data, err := json.Marshal(report{Workloads: []workloadReport{wr}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", []float64{100, 101, 99})
	for _, c := range []struct {
		name    string
		mbps    []float64
		worse   bool
		verdict string
	}{
		{"same", []float64{100, 100.5, 99.5}, false, "ok"},
		{"slow", []float64{70, 71, 69}, true, "worse"},
		{"noisy", []float64{60, 97, 140}, false, "unresolved"},
	} {
		var out bytes.Buffer
		worse, err := compareReports(&out, base, write(c.name+".json", c.mbps))
		if err != nil {
			t.Fatal(err)
		}
		line := ""
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, "rebuild_mbps") {
				line = l
			}
		}
		if worse != c.worse || !strings.HasSuffix(line, c.verdict) {
			t.Errorf("%s: worse=%v, line %q; want worse=%v verdict %s", c.name, worse, line, c.worse, c.verdict)
		}
	}
}
