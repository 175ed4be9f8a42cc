package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"fbf/internal/sim"
)

func sampleEvents() []Event {
	w0 := Track{Group: GroupWorkers, ID: 0}
	d1 := Track{Group: GroupDisks, ID: 1}
	return []Event{
		{Name: "scheme-gen", Cat: CatScheme, Ph: PhaseSpan, Track: w0, TS: 0, Dur: 0,
			Args: []Arg{{"stripe", 3}, {"chains", 2}}},
		{Name: "miss", Cat: CatCache, Ph: PhaseInstant, Track: w0, TS: 500 * sim.Microsecond,
			Args: []Arg{{"stripe", 3}, {"row", 0}, {"col", 1}}},
		{Name: "queue", Cat: CatIO, Ph: PhaseCounter, Track: d1, TS: 500 * sim.Microsecond,
			Args: []Arg{{"depth", 2}}},
		{Name: "read", Cat: CatIO, Ph: PhaseSpan, Track: d1, TS: 500 * sim.Microsecond,
			Dur: 10 * sim.Millisecond, Args: []Arg{{"addr", 42}}},
		{Name: "xor", Cat: CatXOR, Ph: PhaseSpan, Track: w0, TS: 11 * sim.Millisecond,
			Dur: 20 * sim.Microsecond, Args: []Arg{{"chunks", 2}}},
		{Name: "write", Cat: CatIO, Ph: PhaseSpan, Track: d1, TS: 12 * sim.Millisecond,
			Dur: 10 * sim.Millisecond, Args: []Arg{{"addr", 99}}},
		{Name: "repair", Cat: CatChunk, Ph: PhaseSpan, Track: w0, TS: 0, Dur: 22 * sim.Millisecond,
			Args: []Arg{{"stripe", 3}}},
		{Name: "group", Cat: CatGroup, Ph: PhaseSpan, Track: w0, TS: 0, Dur: 22 * sim.Millisecond,
			Args: []Arg{{"stripe", 3}}},
	}
}

func TestCollectorAndValidate(t *testing.T) {
	c := NewCollector()
	for _, e := range sampleEvents() {
		c.Emit(e)
	}
	if c.Len() != len(sampleEvents()) {
		t.Fatalf("got %d events, want %d", c.Len(), len(sampleEvents()))
	}
	if err := Validate(c.Events()); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	bad := []struct {
		name string
		ev   Event
	}{
		{"unknown phase", Event{Name: "x", Ph: 'Z', Track: Track{Group: "g"}}},
		{"empty name", Event{Ph: PhaseInstant, Track: Track{Group: "g"}}},
		{"empty group", Event{Name: "x", Ph: PhaseInstant}},
		{"negative ts", Event{Name: "x", Ph: PhaseInstant, Track: Track{Group: "g"}, TS: -1}},
		{"dur on instant", Event{Name: "x", Ph: PhaseInstant, Track: Track{Group: "g"}, Dur: 1}},
		{"counter without values", Event{Name: "x", Ph: PhaseCounter, Track: Track{Group: "g"}}},
		{"empty arg key", Event{Name: "x", Ph: PhaseInstant, Track: Track{Group: "g"}, Args: []Arg{{"", 1}}}},
	}
	for _, tc := range bad {
		if err := Validate([]Event{tc.ev}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestWriteChromeIsValidJSONAndDeterministic(t *testing.T) {
	events := sampleEvents()
	var a, b bytes.Buffer
	if err := WriteChrome(&a, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Chrome export not byte-deterministic")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v\n%s", err, a.String())
	}
	if doc.Unit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.Unit)
	}
	// 2 process_name + 2 thread_name metadata events precede the payload.
	if got, want := len(doc.TraceEvents), len(events)+4; got != want {
		t.Fatalf("got %d trace events, want %d", got, want)
	}
	var sawProc, sawThread bool
	for _, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		if ph == "" {
			t.Fatalf("event without ph: %v", e)
		}
		if name, _ := e["name"].(string); name == "process_name" {
			sawProc = true
		} else if name == "thread_name" {
			sawThread = true
		}
		if _, ok := e["pid"].(float64); !ok {
			t.Fatalf("event without pid: %v", e)
		}
	}
	if !sawProc || !sawThread {
		t.Fatal("missing track metadata events")
	}
	// Sub-microsecond timestamps keep exact fractional digits.
	if !strings.Contains(a.String(), `"ts":500,`) {
		t.Errorf("expected 500us timestamp in output")
	}
}

func TestChromeTS(t *testing.T) {
	cases := []struct {
		ns   sim.Time
		want string
	}{
		{0, "0"},
		{1, "0.001"},
		{999, "0.999"},
		{1000, "1"},
		{1500, "1.500"},
		{10 * sim.Millisecond, "10000"},
	}
	for _, c := range cases {
		if got := chromeTS(c.ns); got != c.want {
			t.Errorf("chromeTS(%d) = %q, want %q", int64(c.ns), got, c.want)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteJSONL(&again, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("JSONL export not byte-deterministic")
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip lost events: %d -> %d", len(events), len(back))
	}
	for i, e := range events {
		g := back[i]
		if g.Name != e.Name || g.Cat != e.Cat || g.Ph != e.Ph || g.Track != e.Track || g.TS != e.TS || g.Dur != e.Dur {
			t.Fatalf("event %d: got %+v, want %+v", i, g, e)
		}
		if len(g.Args) != len(e.Args) {
			t.Fatalf("event %d: got %d args, want %d", i, len(g.Args), len(e.Args))
		}
	}
	if err := Validate(back); err != nil {
		t.Fatalf("round-tripped stream invalid: %v", err)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("accepted malformed JSON")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"ph":"XX","name":"x"}` + "\n")); err == nil {
		t.Fatal("accepted multi-byte phase")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(sampleEvents())
	if s.Events != len(sampleEvents()) {
		t.Fatalf("events = %d", s.Events)
	}
	if s.Makespan != 22*sim.Millisecond {
		t.Fatalf("makespan = %v", s.Makespan)
	}
	if s.Read != 10*sim.Millisecond || s.Write != 10*sim.Millisecond {
		t.Fatalf("read = %v write = %v", s.Read, s.Write)
	}
	if s.XOR != 20*sim.Microsecond || s.SchemeGen != 0 {
		t.Fatalf("xor = %v scheme = %v", s.XOR, s.SchemeGen)
	}
	if s.Groups != 1 || s.Chunks != 1 {
		t.Fatalf("groups = %d chunks = %d", s.Groups, s.Chunks)
	}
	if len(s.Disks) != 1 || s.Disks[0].Disk != 1 {
		t.Fatalf("disks = %+v", s.Disks)
	}
	d := s.Disks[0]
	if d.Reads != 1 || d.Writes != 1 || d.PeakQueue != 2 {
		t.Fatalf("disk util = %+v", d)
	}
	wantUtil := float64(20*sim.Millisecond) / float64(22*sim.Millisecond)
	if math.Abs(d.Utilization-wantUtil) > 1e-12 {
		t.Fatalf("utilization = %v, want %v", d.Utilization, wantUtil)
	}
	if s.PeakQueue() != 2 {
		t.Fatalf("peak queue = %d", s.PeakQueue())
	}
	var buf bytes.Buffer
	if err := RenderSummary(&buf, s); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scheme-gen", "disk utilization", "cache/miss", "peak queue 2"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("summary output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestSummarizeCountsFailedIO(t *testing.T) {
	d0 := Track{Group: GroupDisks, ID: 0}
	s := Summarize([]Event{
		{Name: "read", Cat: CatIO, Ph: PhaseSpan, Track: d0, TS: 0, Dur: sim.Millisecond,
			Args: []Arg{{"addr", 1}, {"failed", 1}}},
	})
	if s.Disks[0].Reads != 0 {
		t.Fatalf("failed read counted as success: %+v", s.Disks[0])
	}
	if s.Read != sim.Millisecond {
		t.Fatalf("failed read's busy time dropped: %v", s.Read)
	}
}
