package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fbf/internal/obs"
	"fbf/internal/rebuild"
)

// traceParams shrinks goldenParams further: traces record every event
// of every run, so a handful of groups already exercises all event
// kinds while keeping the golden file reviewable.
func traceParams() Params {
	p := goldenParams()
	p.Groups = 6
	p.Stripes = 256
	p.Workers = 4
	return p
}

// traceSweep runs every point of the trace sweep through rebuild.Run
// with its own collector and returns the traces as JSONL, in Sweep's
// enumeration order, with a header line per point.
func traceSweep(t *testing.T) []byte {
	t.Helper()
	p := traceParams()
	preps, err := prepareTraces(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, prep := range preps {
		for _, policy := range p.Policies {
			for _, sizeMB := range p.CacheSizesMB {
				key := fmt.Sprintf("%s/%d/%s/%d", prep.codeName, prep.prime, policy, sizeMB)
				c := obs.NewCollector()
				cfg := p.runConfig(prep, policy, sizeMB)
				cfg.Tracer = c
				if _, err := rebuild.Run(cfg, prep.errors); err != nil {
					t.Fatalf("point %s: %v", key, err)
				}
				if c.Len() == 0 {
					t.Fatalf("point %s produced an empty trace", key)
				}
				if err := obs.Validate(c.Events()); err != nil {
					t.Fatalf("point %s: invalid trace: %v", key, err)
				}
				fmt.Fprintf(&buf, "# %s\n", key)
				if err := obs.WriteJSONL(&buf, c.Events()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return buf.Bytes()
}

// TestTraceGolden pins trace determinism: the event stream of every
// sweep point must be byte-identical to a checked-in golden file across
// hosts and refactors (traces are stamped in simulated time, so host
// scheduling cannot leak in). Regenerate with
// `go test ./internal/experiments -run TraceGolden -update`.
func TestTraceGolden(t *testing.T) {
	got := traceSweep(t)
	golden := filepath.Join("testdata", "trace_golden.jsonl")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("traces drifted from golden file %s (got %d bytes, want %d); regenerate with -update and review the diff", golden, len(got), len(want))
	}
}
