package lanes

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid names the calling goroutine, from the header of its stack trace.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// settle waits up to a second for the goroutine count to fall back to
// start.
func settle(t *testing.T, start int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > start; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the call, %d before", runtime.NumGoroutine(), start)
		}
	}
}

// TestEach pins Each's contract: every index once, at most k at once, the
// lowest failing index's error, no index handed out after a failure, and
// the caller's goroutine as lane 0 with no other at k ≤ 1.
func TestEach(t *testing.T) {
	t.Run("covers-all-indices", func(t *testing.T) {
		const n = 100
		seen := make([]int32, n)
		if err := Each(7, n, func(_, i int) error {
			atomic.AddInt32(&seen[i], 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("index %d ran %d times", i, c)
			}
		}
	})
	t.Run("bounded-concurrency", func(t *testing.T) {
		var cur, peak int32
		release := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := Each(3, 12, func(lane, _ int) error {
				if lane < 0 || lane >= 3 {
					t.Errorf("lane %d of 3", lane)
				}
				c := atomic.AddInt32(&cur, 1)
				for {
					p := atomic.LoadInt32(&peak)
					if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
						break
					}
				}
				<-release
				atomic.AddInt32(&cur, -1)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
		for range 12 {
			release <- struct{}{}
		}
		wg.Wait()
		if p := atomic.LoadInt32(&peak); p > 3 {
			t.Errorf("peak concurrency %d exceeds bound 3", p)
		}
	})
	t.Run("lowest-index-error-wins", func(t *testing.T) {
		// All four jobs are taken before any fails, and job 3 fails after
		// job 1: the error kept is the lowest index's, not the last one.
		errLow := errors.New("low")
		errHigh := errors.New("high")
		var taken sync.WaitGroup
		taken.Add(4)
		lowFailed := make(chan struct{})
		err := Each(4, 4, func(_, i int) error {
			taken.Done()
			taken.Wait()
			switch i {
			case 1:
				defer close(lowFailed)
				return errLow
			case 3:
				<-lowFailed
				time.Sleep(10 * time.Millisecond)
				return errHigh
			}
			return nil
		})
		if err != errLow {
			t.Errorf("got error %v, want %v", err, errLow)
		}
	})
	t.Run("cancels-unstarted-work", func(t *testing.T) {
		for _, k := range []int{1, 2} {
			var started atomic.Int32
			err := Each(k, 1000, func(_, i int) error {
				started.Add(1)
				return fmt.Errorf("boom %d", i)
			})
			if err == nil {
				t.Fatal("no error propagated")
			}
			// Job 0 always starts; at k = 1 it is the only one.
			if s := int(started.Load()); s < 1 || s > k {
				t.Errorf("%d jobs started on %d lanes, all failing; want 1 to %d", s, k, k)
			}
		}
	})
	t.Run("no-job-after-a-failure", func(t *testing.T) {
		// Job 0 holds its lane while job 1 fails on the other. A pool whose
		// feeder checks for a failure and then blocks handing out job 2
		// gives job 2 to the lane that just failed.
		failed := make(chan struct{})
		started2 := make(chan struct{})
		errBoom := errors.New("boom")
		err := Each(2, 3, func(_, i int) error {
			switch i {
			case 0:
				<-failed
				select {
				case <-started2:
				case <-time.After(50 * time.Millisecond):
				}
			case 1:
				time.Sleep(5 * time.Millisecond)
				close(failed)
				return errBoom
			case 2:
				close(started2)
			}
			return nil
		})
		if err != errBoom {
			t.Errorf("got error %v, want %v", err, errBoom)
		}
		select {
		case <-started2:
			t.Error("job 2 started after job 1 failed")
		default:
		}
	})
	t.Run("zero-jobs", func(t *testing.T) {
		if err := Each(4, 0, func(_, _ int) error { return fmt.Errorf("must not run") }); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("caller-is-lane-0", func(t *testing.T) {
		for _, k := range []int{0, 1, 3} {
			caller, start := goid(), runtime.NumGoroutine()
			var mu sync.Mutex
			err := Each(k, 30, func(lane, i int) error {
				mu.Lock()
				defer mu.Unlock()
				if on := goid() == caller; on != (lane == 0) {
					t.Errorf("k=%d: job %d on lane %d, on the caller's goroutine: %v", k, i, lane, on)
				}
				if k <= 1 && runtime.NumGoroutine() > start {
					t.Errorf("k=%d: %d goroutines in job %d, %d before", k, runtime.NumGoroutine(), i, start)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			settle(t, start)
		}
	})
}

// aheadProbe records what Ahead does with its callbacks: which step holds
// each slot, how many steps are in work and begun at once, and the order
// and goroutine of every begin and end.
type aheadProbe struct {
	t            *testing.T
	k, slots     int
	caller       string
	mu           sync.Mutex
	holder       []int // step holding each slot; -1 free
	begun, ended []int
	open, active int // steps begun and not ended; works running
	peakBegun    int
	peakWork     int
	full         bool          // k works have run at once
	barrier      chan struct{} // closed then
	after        atomic.Bool   // Ahead has returned
	late         atomic.Int32  // works that ran after it returned
}

func newProbe(t *testing.T, k, slots int) *aheadProbe {
	p := &aheadProbe{t: t, k: k, slots: slots, caller: goid(), holder: make([]int, max(slots, 1)), barrier: make(chan struct{})}
	for i := range p.holder {
		p.holder[i] = -1
	}
	return p
}

func (p *aheadProbe) begin(i, slot int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if goid() != p.caller {
		p.t.Errorf("begin(%d) off the caller's goroutine", i)
	}
	if len(p.begun) != i {
		p.t.Errorf("begin(%d) after %d begins", i, len(p.begun))
	}
	if want := i % p.slots; p.k > 1 && slot != want || p.k <= 1 && slot != 0 {
		p.t.Errorf("step %d in slot %d", i, slot)
	}
	if h := p.holder[slot]; h >= 0 {
		p.t.Errorf("step %d begun in slot %d, held by step %d", i, slot, h)
	}
	p.holder[slot] = i
	p.begun = append(p.begun, i)
	p.open++
	p.peakBegun = max(p.peakBegun, p.open)
	return true
}

func (p *aheadProbe) work(i, slot int) {
	if p.after.Load() {
		p.late.Add(1)
	}
	p.mu.Lock()
	if p.holder[slot] != i {
		p.t.Errorf("work(%d) in slot %d, held by step %d", i, slot, p.holder[slot])
	}
	p.active++
	p.peakWork = max(p.peakWork, p.active)
	if p.active == p.k && !p.full {
		p.full = true
		close(p.barrier)
	}
	p.mu.Unlock()
	if p.k > 1 && i < p.k {
		// The first k steps are begun before any is taken back: hold each
		// until all k are in work at once.
		select {
		case <-p.barrier:
		case <-time.After(5 * time.Second):
			p.t.Errorf("work(%d): %d works never ran at once", i, p.k)
		}
	}
	time.Sleep(100 * time.Microsecond)
	p.mu.Lock()
	p.active--
	p.mu.Unlock()
}

func (p *aheadProbe) end(i, slot int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if goid() != p.caller {
		p.t.Errorf("end(%d) off the caller's goroutine", i)
	}
	if len(p.ended) != i {
		p.t.Errorf("end(%d) after %d ends", i, len(p.ended))
	}
	if p.holder[slot] != i {
		p.t.Errorf("end(%d) in slot %d, held by step %d", i, slot, p.holder[slot])
	}
	p.holder[slot] = -1
	p.ended = append(p.ended, i)
	p.open--
	return nil
}

// returned marks Ahead returned and checks that every lane was joined.
func (p *aheadProbe) returned(start int) {
	p.t.Helper()
	p.after.Store(true)
	p.mu.Lock()
	active := p.active
	p.mu.Unlock()
	if active != 0 {
		p.t.Errorf("%d works running after Ahead returned", active)
	}
	settle(p.t, start)
	if n := p.late.Load(); n != 0 {
		p.t.Errorf("%d works started after Ahead returned", n)
	}
}

// TestAhead pins Ahead's schedule at the two slot rules its callers use,
// slots = k+1 and slots = k: begin and end on the caller's goroutine in
// ascending order, no slot held by two steps, k steps in work and slots
// steps begun at the peak and never more, and no goroutine at k ≤ 1.
func TestAhead(t *testing.T) {
	const n = 40
	for _, k := range []int{0, 1, 2, 3, 8} {
		for _, slots := range []int{k + 1, k} {
			if slots < 1 {
				continue
			}
			t.Run(fmt.Sprintf("k=%d,slots=%d", k, slots), func(t *testing.T) {
				start := runtime.NumGoroutine()
				p := newProbe(t, k, slots)
				work := p.work
				if k <= 1 {
					work = func(i, slot int) {
						if goid() != p.caller || runtime.NumGoroutine() > start {
							t.Errorf("work(%d) off the caller's goroutine or beside another", i)
						}
						p.work(i, slot)
					}
				}
				if err := Ahead(k, slots, n, p.begin, work, p.end); err != nil {
					t.Fatal(err)
				}
				p.returned(start)
				if len(p.begun) != n || len(p.ended) != n {
					t.Fatalf("%d begun, %d ended, want %d", len(p.begun), len(p.ended), n)
				}
				wantWork, wantBegun := max(k, 1), slots
				if k <= 1 {
					wantBegun = 1
				}
				if p.peakWork != wantWork || p.peakBegun != wantBegun {
					t.Fatalf("at most %d in work and %d begun at once, want %d and %d", p.peakWork, p.peakBegun, wantWork, wantBegun)
				}
			})
		}
	}
}

// TestAheadStops pins the two ways a run stops early, at k = 1 (the plain
// loop) and on lanes: a begin that returns false leaves the steps before
// it to run to their end and begins none after, an end that fails ends
// nothing more and its error is returned, and either way no work runs
// once Ahead has returned and every lane's goroutine is gone.
func TestAheadStops(t *testing.T) {
	const n, at = 30, 7
	errStop := errors.New("end failed")
	for _, k := range []int{1, 2, 4} {
		for _, slots := range []int{k + 1, k} {
			t.Run(fmt.Sprintf("refused-begin/k=%d,slots=%d", k, slots), func(t *testing.T) {
				start := runtime.NumGoroutine()
				p := newProbe(t, k, slots)
				begin := func(i, slot int) bool { return i != at && p.begin(i, slot) }
				if err := Ahead(k, slots, n, begin, p.work, p.end); err != nil {
					t.Fatal(err)
				}
				p.returned(start)
				if len(p.begun) != at || len(p.ended) != at {
					t.Fatalf("%d begun and %d ended, want the %d steps before the refused one", len(p.begun), len(p.ended), at)
				}
			})
			t.Run(fmt.Sprintf("failed-end/k=%d,slots=%d", k, slots), func(t *testing.T) {
				start := runtime.NumGoroutine()
				p := newProbe(t, k, slots)
				end := func(i, slot int) error {
					if err := p.end(i, slot); err != nil || i != at {
						return err
					}
					return errStop
				}
				if err := Ahead(k, slots, n, p.begin, p.work, end); err != errStop {
					t.Fatalf("Ahead returned %v, want %v", err, errStop)
				}
				p.returned(start)
				if len(p.ended) != at+1 {
					t.Fatalf("%d ended, want %d, the last of them the failing one", len(p.ended), at+1)
				}
				if len(p.begun) > at+slots {
					t.Fatalf("%d begun with %d slots, failing at end(%d)", len(p.begun), slots, at)
				}
			})
		}
	}
}
