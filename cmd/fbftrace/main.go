// Command fbftrace reports on rebuild traces captured with fbfsim's
// -trace-jsonl / -trace-out flags (or any obs.Tracer sink).
//
// Usage:
//
//	fbftrace run.jsonl              print the per-phase breakdown
//	fbftrace -validate run.trace.json   check a Chrome trace-event export
//
// The summary breaks the run down by phase (scheme generation, disk
// reads, XOR compute, spare writes), reports time-weighted per-disk
// utilization with peak queue occupancy, and tallies every instant
// event (cache hits/misses/evictions/demotions, foreground app
// hits/misses).
//
// -validate parses a -trace-out file and checks the schema every event
// must satisfy (known phase, pid/tid present, spans carrying their
// duration), so CI can gate on trace well-formedness without loading
// the file into a viewer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"fbf/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fbftrace: ")
	validate := flag.Bool("validate", false, "treat the input as a Chrome trace-event JSON export and check its schema instead of summarizing")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: fbftrace [-validate] <trace file>")
	}
	path := flag.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	if *validate {
		n, err := validateChrome(f)
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		fmt.Printf("%s: valid Chrome trace, %d events\n", path, n)
		return
	}

	events, err := obs.ReadJSONL(f)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	if err := obs.Validate(events); err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	if err := obs.RenderSummary(os.Stdout, obs.Summarize(events)); err != nil {
		log.Fatal(err)
	}
}

// validateChrome checks a Chrome trace-event JSON document: the
// top-level shape, and for every event a known phase, a non-empty name,
// track coordinates and a non-negative timestamp (spans additionally a
// non-negative duration). Returns the payload event count (metadata
// excluded).
func validateChrome(f *os.File) (int, error) {
	var doc struct {
		TraceEvents []struct {
			Ph   string          `json:"ph"`
			Name string          `json:"name"`
			PID  *int            `json:"pid"`
			TID  *int            `json:"tid"`
			TS   *float64        `json:"ts"`
			Dur  *float64        `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
		Unit string `json:"displayTimeUnit"`
	}
	dec := json.NewDecoder(f)
	if err := dec.Decode(&doc); err != nil {
		return 0, fmt.Errorf("not valid JSON: %w", err)
	}
	if doc.Unit != "ms" {
		return 0, fmt.Errorf("displayTimeUnit = %q, want \"ms\"", doc.Unit)
	}
	if len(doc.TraceEvents) == 0 {
		return 0, fmt.Errorf("empty traceEvents array")
	}
	payload := 0
	for i, e := range doc.TraceEvents {
		if e.Name == "" {
			return 0, fmt.Errorf("event %d: empty name", i)
		}
		if e.PID == nil || e.TID == nil {
			return 0, fmt.Errorf("event %d (%s): missing pid/tid", i, e.Name)
		}
		switch e.Ph {
		case "M":
			continue // metadata: process_name / thread_name
		case "X":
			if e.Dur == nil || *e.Dur < 0 {
				return 0, fmt.Errorf("event %d (%s): span without non-negative dur", i, e.Name)
			}
		case "i", "C":
		default:
			return 0, fmt.Errorf("event %d (%s): unknown phase %q", i, e.Name, e.Ph)
		}
		if e.TS == nil || *e.TS < 0 {
			return 0, fmt.Errorf("event %d (%s): missing or negative ts", i, e.Name)
		}
		if e.Ph == "C" && len(e.Args) == 0 {
			return 0, fmt.Errorf("event %d (%s): counter without args", i, e.Name)
		}
		payload++
	}
	if payload == 0 {
		return 0, fmt.Errorf("trace holds only metadata events")
	}
	return payload, nil
}
