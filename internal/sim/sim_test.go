package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func TestTimeConversions(t *testing.T) {
	if Millisecond.Milliseconds() != 1 {
		t.Error("Milliseconds wrong")
	}
	if Second.Seconds() != 1 {
		t.Error("Seconds wrong")
	}
	if (1500 * Microsecond).String() != "1.500ms" {
		t.Errorf("String = %q", (1500 * Microsecond).String())
	}
}

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(30, func() { order = append(order, 3) })
	s.Schedule(10, func() { order = append(order, 1) })
	s.Schedule(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 30 {
		t.Errorf("Now = %v", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events out of order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var at []Time
	s.Schedule(10, func() {
		at = append(at, s.Now())
		s.Schedule(5, func() { at = append(at, s.Now()) })
	})
	s.Run()
	if len(at) != 2 || at[0] != 10 || at[1] != 15 {
		t.Errorf("at = %v", at)
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	s := New()
	s.Schedule(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("want panic scheduling in the past")
		}
	}()
	s.ScheduleAt(5, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on negative delay")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		s.Schedule(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(12)
	if len(fired) != 2 || s.Now() != 12 {
		t.Errorf("fired %v, now %v", fired, s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("pending = %d", s.Pending())
	}
	s.Run()
	if len(fired) != 4 || s.Now() != 20 {
		t.Errorf("after Run: fired %v now %v", fired, s.Now())
	}
}

func TestStepOnEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Error("Step on empty should be false")
	}
}

func TestClockMonotonic(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(3))
	last := Time(0)
	violated := false
	var spawn func()
	count := 0
	spawn = func() {
		if s.Now() < last {
			violated = true
		}
		last = s.Now()
		if count < 500 {
			count++
			s.Schedule(Time(rng.Intn(50)), spawn)
		}
	}
	s.Schedule(0, spawn)
	s.Run()
	if violated {
		t.Error("clock went backwards")
	}
}

// TestHeapRandomOrdering cross-checks the typed 4-ary heap against a
// sort of the same schedule: events drawn with random times (many ties)
// must fire in (time, insertion) order.
func TestHeapRandomOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		s := New()
		n := 1 + rng.Intn(500)
		type stamp struct {
			at  Time
			seq int
		}
		want := make([]stamp, n)
		var got []stamp
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(37)) // heavy tie pressure
			want[i] = stamp{at, i}
			st := stamp{at, i}
			s.ScheduleAt(at, func() { got = append(got, st) })
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		s.Run()
		if len(got) != n {
			t.Fatalf("trial %d: ran %d of %d events", trial, len(got), n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: event %d fired as %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestHeapInterleavedPushPop exercises pops interleaved with nested
// pushes so sift-down paths past the first level are covered.
func TestHeapInterleavedPushPop(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(42))
	var last Time
	ran := 0
	var spawn func()
	spawn = func() {
		if s.Now() < last {
			t.Fatalf("clock regressed: %v after %v", s.Now(), last)
		}
		last = s.Now()
		ran++
		for k := rng.Intn(4); k > 0; k-- {
			if ran < 5000 {
				s.Schedule(Time(rng.Intn(100)), spawn)
			}
		}
	}
	for i := 0; i < 32; i++ {
		s.Schedule(Time(rng.Intn(100)), spawn)
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("heap left %d events pending", s.Pending())
	}
}

// TestScheduleSteadyStateAllocs pins the queue's zero-allocation
// contract: once the backing arrays have grown, scheduling an event
// boxes nothing (the old container/heap path allocated once per event),
// and the sorted run reuses its slots instead of growing.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	fn := func() {}
	t.Run("single", func(t *testing.T) {
		s := New()
		// Warm up the backing arrays.
		for i := 0; i < 64; i++ {
			s.Schedule(Time(i), fn)
		}
		s.Run()
		allocs := testing.AllocsPerRun(100, func() {
			s.Schedule(1, fn)
			s.Step()
		})
		if allocs != 0 {
			t.Errorf("schedule+step allocates %.1f times per event, want 0", allocs)
		}
	})
	// Every event at now + D, the shape of a fixed-latency disk's
	// completions: all of them go to the run, which never drains, so
	// its slots come back only through compaction.
	t.Run("monotone", func(t *testing.T) {
		s := New()
		const depth, delay, ops = 48, 10, 2000
		for i := 0; i < depth; i++ {
			s.Schedule(delay, fn)
		}
		for i := 0; i < ops; i++ {
			s.Schedule(delay, fn)
			s.Step()
		}
		allocs := testing.AllocsPerRun(ops, func() {
			s.Schedule(delay, fn)
			s.Step()
		})
		if allocs != 0 {
			t.Errorf("schedule+step allocates %.1f times per event, want 0", allocs)
		}
		if len(s.heap) != 0 || s.Pending() != depth {
			t.Fatalf("heap holds %d, pending %d: want every event in the run, %d pending", len(s.heap), s.Pending(), depth)
		}
		if c := cap(s.run); c >= ops {
			t.Fatalf("run capacity %d after %d events: slots were not reused", c, 2*ops+depth)
		}
	})
}

// FuzzEventOrder checks the two-tier queue against a reference: a
// slice popped in (at, seq) order. Each input byte is one operation, the
// top three bits choosing it and the low five its argument:
//
//	0  Schedule(fixedDelay)       the run's shape: disk completions
//	1  Schedule(arg)              a short delay, zero when arg is 0
//	2  Schedule(0)
//	3  ScheduleAt(a pending at)   a tie, in whichever tier that event is
//	4, 7  Step
//	5  RunUntil(now + arg)
//	6  Pending
//
// Whatever is left pending at the end is drained with Run. Across the
// tiers a tie can only go to the run's head: a heap event is later than
// the run's tail when it is scheduled, and the tail only grows while the
// run is not empty, so a run event is never scheduled after a heap event
// at the same time. A pop that prefers the run on equal times is
// therefore the same queue; one that prefers the heap is not.
func FuzzEventOrder(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	shape := func(n int, op func() byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = op()
		}
		return b
	}
	// TestHeapRandomOrdering's shape: many short delays from time 0,
	// heavy tie pressure, then a drain.
	f.Add(shape(300, func() byte { return 1<<5 | byte(rng.Intn(32)) }))
	// TestHeapInterleavedPushPop's shape: schedules interleaved with pops.
	f.Add(shape(400, func() byte { return byte(rng.Intn(2))<<5 | byte(rng.Intn(32)) | byte(rng.Intn(2))<<7 }))
	// The simulator's mix: completions, lookups, ties and pops.
	f.Add(shape(600, func() byte { return byte(rng.Intn(8))<<5 | byte(rng.Intn(32)) }))
	f.Add([]byte{0, 1 << 5, 3 << 5, 4 << 5, 0, 3<<5 | 1, 5<<5 | 31, 6 << 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		const fixedDelay = 40 // past every short delay
		type stamp struct {
			at  Time
			seq int
		}
		s := New()
		var ref []stamp // pending, in scheduling order
		var fired []stamp
		seq := 0
		schedule := func(at Time) {
			seq++
			st := stamp{at, seq}
			ref = append(ref, st)
			s.ScheduleAt(at, func() { fired = append(fired, st) })
		}
		// popRef removes and returns the reference's earliest event.
		popRef := func() stamp {
			best := 0
			for i, st := range ref {
				if st.at < ref[best].at || (st.at == ref[best].at && st.seq < ref[best].seq) {
					best = i
				}
			}
			st := ref[best]
			ref = append(ref[:best], ref[best+1:]...)
			return st
		}
		check := func(want []stamp) {
			t.Helper()
			if len(fired) != len(want) {
				t.Fatalf("fired %v, want %v", fired, want)
			}
			for i := range want {
				if fired[i] != want[i] {
					t.Fatalf("fired %v, want %v", fired, want)
				}
			}
			fired = fired[:0]
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		for _, b := range data {
			arg := Time(b & 31)
			switch b >> 5 {
			case 0:
				schedule(s.Now() + fixedDelay)
			case 1:
				schedule(s.Now() + arg)
			case 2:
				schedule(s.Now())
			case 3:
				if len(ref) == 0 {
					schedule(s.Now() + fixedDelay)
				} else {
					schedule(ref[int(arg)%len(ref)].at)
				}
			case 4, 7:
				var want []stamp
				if len(ref) > 0 {
					want = append(want, popRef())
				}
				if s.Step() != (len(want) == 1) {
					t.Fatalf("Step with %d pending returned the wrong result", len(want))
				}
				check(want)
				if len(want) == 1 && s.Now() != want[0].at {
					t.Fatalf("clock at %v after firing an event at %v", s.Now(), want[0].at)
				}
			case 5:
				until := s.Now() + arg
				var want []stamp
				for len(ref) > 0 {
					st := popRef()
					if st.at > until {
						ref = append(ref, st) // order in ref does not matter
						break
					}
					want = append(want, st)
				}
				s.RunUntil(until)
				check(want)
				if s.Now() != until {
					t.Fatalf("clock at %v after RunUntil(%v)", s.Now(), until)
				}
			case 6:
				if s.Pending() != len(ref) {
					t.Fatalf("Pending = %d, want %d", s.Pending(), len(ref))
				}
			}
		}
		var want []stamp
		for len(ref) > 0 {
			want = append(want, popRef())
		}
		s.Run()
		check(want)
		if s.Pending() != 0 {
			t.Fatalf("Pending = %d after Run", s.Pending())
		}
	})
}

// BenchmarkSchedule measures raw event throughput: push one, pop one,
// at a steady queue depth. The depth rows draw delays from [1, 97];
// fixed puts every event at now + D, the shape of a fixed-latency
// disk's completions; mixed alternates D with a short random delay, the
// simulator's mix of completions and lookups, at its measured depth.
func BenchmarkSchedule(b *testing.B) {
	fn := func() {}
	for _, depth := range []int{16, 1024} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s := New()
			for i := 0; i < depth; i++ {
				s.Schedule(Time(i%97), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Schedule(Time(i%97)+1, fn)
				s.Step()
			}
		})
	}
	const fixedDelay = 10 * Millisecond
	rng := rand.New(rand.NewSource(7))
	short := make([]Time, 1024)
	for i := range short {
		short[i] = Time(rng.Intn(64)) * Microsecond
	}
	for _, row := range []struct {
		name  string
		delay func(i int) Time
	}{
		{"fixed", func(int) Time { return fixedDelay }},
		{"mixed", func(i int) Time {
			if i%2 == 0 {
				return fixedDelay
			}
			return short[i%len(short)]
		}},
	} {
		b.Run(row.name, func(b *testing.B) {
			s := New()
			for i := 0; i < 21; i++ {
				s.Schedule(row.delay(i), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Schedule(row.delay(i), fn)
				s.Step()
			}
		})
	}
}
