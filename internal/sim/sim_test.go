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

func TestTick(t *testing.T) {
	s := New()
	done := 0
	for i := 1; i <= 3; i++ {
		s.Schedule(Time(i)*100, func() { done++ })
	}
	var ticks []Time
	s.Tick(40, func(now Time) { ticks = append(ticks, now) })
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("tick left %d events pending", s.Pending())
	}
	if len(ticks) == 0 {
		t.Fatal("tick never fired")
	}
	// Ticks are spaced by the interval and the last fires at or after
	// the final real event (320 >= 300), then stops re-arming.
	for i, at := range ticks {
		if want := Time(40 * (i + 1)); at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
	if last := ticks[len(ticks)-1]; last < 300 {
		t.Fatalf("last tick at %v, before final event at 300", last)
	}
	if done != 3 {
		t.Fatalf("real events ran %d times", done)
	}
}

func TestTickRejectsBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive interval")
		}
	}()
	New().Tick(0, func(Time) {})
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

// TestScheduleSteadyStateAllocs pins the heap's zero-allocation
// contract: once the pending slice has grown, scheduling an event boxes
// nothing (the old container/heap path allocated once per event).
func TestScheduleSteadyStateAllocs(t *testing.T) {
	s := New()
	fn := func() {}
	// Warm up the backing array.
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
}

// BenchmarkSchedule measures raw event throughput: push one, pop one,
// at a steady heap depth.
func BenchmarkSchedule(b *testing.B) {
	for _, depth := range []int{16, 1024} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s := New()
			fn := func() {}
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
}
