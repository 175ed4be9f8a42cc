// Package sim is a minimal deterministic discrete-event simulation
// engine: a virtual clock plus a pending-event set in two tiers, a
// sorted run for events that arrive in time order (a fixed-latency
// disk's completions) and a 4-ary heap for the rest. It is the
// substrate on which the disk-array model (internal/disk) and the
// reconstruction engines (internal/rebuild) run, replacing the DiskSim
// simulator used by the paper.
package sim

import (
	"fmt"
)

// Time is simulated time in nanoseconds since the start of the run.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Milliseconds converts the time to floating-point milliseconds for
// reporting.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds converts the time to floating-point seconds for reporting.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time in milliseconds.
func (t Time) String() string { return fmt.Sprintf("%.3fms", t.Milliseconds()) }

type event struct {
	at  Time
	seq uint64 // FIFO tie-break for simultaneous events
	fn  func()
}

// eventHeap is a typed 4-ary min-heap ordered by (at, seq). It replaces
// container/heap, whose Push(x any) boxed every scheduled event into an
// interface — one heap allocation per event, millions per run. The
// 4-ary shape halves the tree depth of a binary heap, trading a little
// sift-down comparison work (three siblings per level) for far fewer
// cache-missing levels; event ordering is a total order, so pop order —
// and therefore every simulation result — is identical to the old heap.
type eventHeap []event

// before orders events by timestamp with the scheduling sequence
// breaking ties, preserving FIFO semantics for simultaneous events.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

func (h eventHeap) less(i, j int) bool { return h[i].before(&h[j]) }

// push appends the event and sifts it up to its heap position.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release the callback for GC
	q = q[:n]
	*h = q
	// Sift the displaced last element down.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.less(c, best) {
				best = c
			}
		}
		if !q.less(best, i) {
			break
		}
		q[i], q[best] = q[best], q[i]
		i = best
	}
	return top
}

// Simulator owns the virtual clock and the pending event set. It is
// single-threaded by design: determinism is what makes experiment
// results reproducible across runs and platforms.
//
// The pending set has two tiers. run holds events in (at, seq) order
// from runHead on: an event whose time is not before the run's tail is
// appended there in O(1). A fixed-latency disk's completions land at
// now + a constant and now never goes back, so while no other delay is
// longer, every completion goes there. Every other event goes into the
// heap. seq rises strictly, so both tiers are
// sorted by (at, seq) and popping the smaller head gives the same total
// order a single heap gives, on any schedule.
type Simulator struct {
	now     Time
	seq     uint64
	run     []event
	runHead int
	heap    eventHeap
}

// New returns a simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Pending returns the number of scheduled events.
func (s *Simulator) Pending() int { return len(s.run) - s.runHead + len(s.heap) }

// Schedule runs fn after the given delay of simulated time. A negative
// delay is an error in the caller; it panics to surface the bug.
func (s *Simulator) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt runs fn at the given absolute simulated time, which must
// not be in the past. Events scheduled for the same instant run in
// scheduling order.
func (s *Simulator) ScheduleAt(at Time, fn func()) {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v is before now %v", at, s.now))
	}
	s.seq++
	e := event{at: at, seq: s.seq, fn: fn}
	if n := len(s.run); n > s.runHead && at < s.run[n-1].at {
		s.heap.push(e)
		return
	}
	if len(s.run) == cap(s.run) && s.runHead > 0 && 2*s.runHead >= len(s.run) {
		// At least half the slice is popped slots: slide the live
		// events down rather than grow. Each copied event is paid for
		// by a pop, so appends stay amortised O(1).
		live := copy(s.run, s.run[s.runHead:])
		clear(s.run[live:])
		s.run = s.run[:live]
		s.runHead = 0
	}
	s.run = append(s.run, e)
}

// next returns the earliest pending event without removing it, and
// whether it is the run's head rather than the heap's.
func (s *Simulator) next() (e *event, fromRun bool) {
	if s.runHead < len(s.run) {
		r := &s.run[s.runHead]
		if len(s.heap) == 0 || r.before(&s.heap[0]) {
			return r, true
		}
	}
	if len(s.heap) == 0 {
		return nil, false
	}
	return &s.heap[0], false
}

// Step executes the next event, advancing the clock to it. It reports
// whether an event was executed.
func (s *Simulator) Step() bool {
	head, fromRun := s.next()
	if head == nil {
		return false
	}
	var e event
	if fromRun {
		e = *head
		*head = event{} // release the callback for GC
		s.runHead++
		if s.runHead == len(s.run) {
			s.run = s.run[:0]
			s.runHead = 0
		}
	} else {
		e = s.heap.pop()
	}
	s.now = e.at
	e.fn()
	return true
}

// Run executes events until none remain.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// Tick runs fn every interval of simulated time for as long as other
// events remain pending, starting one interval from now. The tick
// re-arms itself only while the simulation still has work, so a Run()
// that would otherwise quiesce is never kept alive by its own sampler —
// the final tick fires at or after the last real event and then stops.
// The metrics registry's periodic sampling is built on this.
func (s *Simulator) Tick(interval Time, fn func(now Time)) {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive tick interval %v", interval))
	}
	var step func()
	step = func() {
		fn(s.now)
		if s.Pending() > 0 {
			s.Schedule(interval, step)
		}
	}
	s.Schedule(interval, step)
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to exactly t.
func (s *Simulator) RunUntil(t Time) {
	for {
		head, _ := s.next()
		if head == nil || head.at > t {
			break
		}
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}
