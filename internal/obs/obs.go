// Package obs is the observability layer of the simulator: event
// tracing on the simulated clock, a metrics registry sampled on a
// simulated-time tick, and exporters for both (Chrome trace-event JSON
// for Perfetto, JSONL and CSV for programmatic analysis).
//
// The design contract is zero overhead when disabled: every
// instrumentation site in the engines guards on a single nil check of
// the installed Tracer (or *Registry), so a run without observability
// executes exactly the instructions it executed before the layer
// existed and allocates nothing for it (pinned by
// internal/rebuild's obs tests).
//
// All timestamps are simulated time (sim.Time). Instrumented code runs
// inside the single-threaded simulation loop, so events arrive in
// deterministic order and a trace is bit-identical across host
// parallelism levels — the experiments package's parallel sweeps
// produce byte-for-byte the traces of a serial sweep.
package obs

import (
	"fmt"

	"fbf/internal/sim"
)

// Track identifies one timeline of the trace: a named group of lanes
// (rendered as a Perfetto process) and a lane id within it (rendered as
// a thread). The engines use groups "workers", "disks" and "engine".
type Track struct {
	Group string
	ID    int
}

// Standard track groups.
const (
	GroupEngine  = "engine"  // run-wide events (foreground reads)
	GroupWorkers = "workers" // one lane per reconstruction worker
	GroupDisks   = "disks"   // one lane per disk
)

// Phase classifies an event, mirroring the Chrome trace-event phases
// the exporters emit.
type Phase byte

const (
	// PhaseSpan is a complete duration event ('X'): TS is the start,
	// Dur the length, both in simulated time.
	PhaseSpan Phase = 'X'
	// PhaseInstant is a point event ('i') at TS.
	PhaseInstant Phase = 'i'
	// PhaseCounter is a counter sample ('C'): each Arg is one series
	// value at TS.
	PhaseCounter Phase = 'C'
)

// String returns the phase's one-byte trace-format code ("X", "i",
// "C"). A Phase is a byte, not a rune — converting through rune would
// re-encode values above 0x7f as multi-byte UTF-8, which is why both
// exporters render phases through this method.
func (p Phase) String() string { return string([]byte{byte(p)}) }

// Arg is one integer annotation on an event. Args are ordered; the
// exporters preserve the order they were attached in.
type Arg struct {
	Key string
	Val int64
}

// Event is one trace record. Name and Cat are short stable strings
// (the event schema in DESIGN.md §10 enumerates them); Dur is zero for
// instants and counters.
type Event struct {
	Name  string
	Cat   string
	Ph    Phase
	Track Track
	TS    sim.Time
	Dur   sim.Time
	Args  []Arg
}

// Tracer receives events from instrumented code. Implementations are
// called from inside the simulation loop and must not block; they need
// not be safe for concurrent use (each simulation run gets its own
// Tracer).
type Tracer interface {
	Emit(Event)
}

// Collector is the standard Tracer: an in-memory, insertion-ordered
// event log that the exporters serialize.
type Collector struct {
	events []Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Emit implements Tracer.
func (c *Collector) Emit(e Event) { c.events = append(c.events, e) }

// Events returns the recorded events in emission order. The slice is
// the collector's backing store; callers must not mutate it.
func (c *Collector) Events() []Event { return c.events }

// Len returns the number of recorded events.
func (c *Collector) Len() int { return len(c.events) }

// Validate checks the structural invariants of an event stream (the
// schema fbftrace -validate enforces on serialized traces): known
// phase, non-empty name and track group, non-negative timestamps,
// durations only on spans, and at least one arg on counters.
func Validate(events []Event) error {
	for i, e := range events {
		switch e.Ph {
		case PhaseSpan, PhaseInstant, PhaseCounter:
		default:
			return fmt.Errorf("obs: event %d (%q): unknown phase %q", i, e.Name, e.Ph)
		}
		if e.Name == "" {
			return fmt.Errorf("obs: event %d: empty name", i)
		}
		if e.Track.Group == "" {
			return fmt.Errorf("obs: event %d (%q): empty track group", i, e.Name)
		}
		if e.TS < 0 {
			return fmt.Errorf("obs: event %d (%q): negative timestamp %v", i, e.Name, e.TS)
		}
		if e.Dur < 0 {
			return fmt.Errorf("obs: event %d (%q): negative duration %v", i, e.Name, e.Dur)
		}
		if e.Ph != PhaseSpan && e.Dur != 0 {
			return fmt.Errorf("obs: event %d (%q): duration on non-span phase %q", i, e.Name, e.Ph)
		}
		if e.Ph == PhaseCounter && len(e.Args) == 0 {
			return fmt.Errorf("obs: event %d (%q): counter without values", i, e.Name)
		}
		for _, a := range e.Args {
			if a.Key == "" {
				return fmt.Errorf("obs: event %d (%q): empty arg key", i, e.Name)
			}
		}
	}
	return nil
}
