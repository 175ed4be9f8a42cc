package faultstore

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"fbf/internal/store"
)

func testPayload(a store.Addr, size int) []byte {
	rng := rand.New(rand.NewSource(int64(a.Disk)<<40 ^ int64(a.Stripe)<<16 ^ int64(a.Chunk) + 1))
	b := make([]byte, size)
	rng.Read(b)
	return b
}

// TestPassThrough pins that a zero plan is a transparent wrapper.
func TestPassThrough(t *testing.T) {
	s := Wrap(store.NewMem(), Plan{})
	a := store.Addr{Disk: 1, Stripe: 2, Chunk: 3}
	want := testPayload(a, 128)
	if err := s.WriteChunk(a, want); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 128)
	n, err := s.ReadChunk(a, dst)
	if err != nil || !bytes.Equal(dst[:n], want) {
		t.Fatalf("read through zero plan: %d bytes, %v", n, err)
	}
	if _, err := s.Stat(a); err != nil {
		t.Fatal(err)
	}
	if got, err := s.List(a.Disk); err != nil || len(got) != 1 {
		t.Fatalf("List = %v, %v", got, err)
	}
	if err := s.Delete(a); err != nil {
		t.Fatal(err)
	}
	if s.Ops() != 5 {
		t.Fatalf("Ops = %d, want 5", s.Ops())
	}
}

// TestDeterministicFaults pins the seeded-coin contract: two stores with
// the same plan over the same operation sequence inject identical
// faults; a different seed injects a different set.
func TestDeterministicFaults(t *testing.T) {
	sequence := func(seed int64) []bool {
		s := Wrap(store.NewMem(), Plan{Seed: seed, WriteErrRate: 0.3, ReadErrRate: 0.3})
		var outcomes []bool
		data := make([]byte, 32)
		dst := make([]byte, 32)
		for i := 0; i < 64; i++ {
			a := store.Addr{Disk: 0, Stripe: i, Chunk: 0}
			outcomes = append(outcomes, s.WriteChunk(a, data) == nil)
			_, err := s.ReadChunk(a, dst)
			outcomes = append(outcomes, err == nil || store.IsNotFound(err))
		}
		return outcomes
	}
	a, b, c := sequence(7), sequence(7), sequence(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
	// And at a 0.3 rate some of each outcome must appear.
	failures := 0
	for _, ok := range a {
		if !ok {
			failures++
		}
	}
	if failures == 0 || failures == len(a) {
		t.Fatalf("fault rate not exercised: %d/%d failures", failures, len(a))
	}
}

// TestInjectedErrorsAreTyped pins the error taxonomy: injected faults
// match their sentinels and never masquerade as NotFound/Corrupt.
func TestInjectedErrorsAreTyped(t *testing.T) {
	s := Wrap(store.NewMem(), Plan{Seed: 1, ReadErrRate: 1})
	_, err := s.ReadChunk(store.Addr{}, make([]byte, 8))
	if !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("injected read error = %v, want ErrInjectedIO", err)
	}
	if store.IsNotFound(err) || store.IsCorrupt(err) {
		t.Fatalf("injected error leaks into the store taxonomy: %v", err)
	}
}

// TestNoSpaceBudget pins ENOSPC: the first N writes succeed, every
// later one fails, and reads are unaffected.
func TestNoSpaceBudget(t *testing.T) {
	s := Wrap(store.NewMem(), Plan{NoSpaceAfterWrites: 3})
	data := make([]byte, 16)
	for i := 0; i < 3; i++ {
		if err := s.WriteChunk(store.Addr{Stripe: i}, data); err != nil {
			t.Fatalf("write %d within budget: %v", i, err)
		}
	}
	for i := 3; i < 6; i++ {
		if err := s.WriteChunk(store.Addr{Stripe: i}, data); !errors.Is(err, ErrNoSpace) {
			t.Fatalf("write %d over budget = %v, want ErrNoSpace", i, err)
		}
	}
	dst := make([]byte, 16)
	if _, err := s.ReadChunk(store.Addr{Stripe: 0}, dst); err != nil {
		t.Fatalf("read after ENOSPC: %v", err)
	}
}

// TestCrashPointHaltsEverything pins the crash semantics: operation N
// and everything after fail with ErrCrashed, across all five methods.
func TestCrashPointHaltsEverything(t *testing.T) {
	mem := store.NewMem()
	a := store.Addr{Disk: 0, Stripe: 0, Chunk: 0}
	if err := mem.WriteChunk(a, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	s := Wrap(mem, Plan{CrashAfterOps: 3})
	if _, err := s.Stat(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.List(0); err != nil {
		t.Fatal(err)
	}
	if s.Crashed() {
		t.Fatal("crashed before the crash point")
	}
	checks := []func() error{
		func() error { _, err := s.ReadChunk(a, make([]byte, 8)); return err },
		func() error { return s.WriteChunk(a, make([]byte, 8)) },
		func() error { return s.Delete(a) },
		func() error { _, err := s.List(0); return err },
		func() error { _, err := s.Stat(a); return err },
	}
	for i, op := range checks {
		if err := op(); !errors.Is(err, ErrCrashed) {
			t.Fatalf("op %d after crash point = %v, want ErrCrashed", i, err)
		}
	}
	if !s.Crashed() {
		t.Fatal("Crashed() false after the crash point")
	}
	// The medium is untouched by post-crash attempts.
	if n, err := mem.ReadChunk(a, make([]byte, 8)); err != nil || n != 8 {
		t.Fatalf("underlying chunk disturbed: %d, %v", n, err)
	}
}

// TestTornWriteLeavesCorruptChunk pins the torn-write debris on a
// codec-carrying backend: the injected EIO leaves a truncated chunk at
// the final path that reads back as typed ErrCorrupt — never as bytes.
func TestTornWriteLeavesCorruptChunk(t *testing.T) {
	dir, err := store.OpenDirWith(t.TempDir(), store.DirOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s := Wrap(dir, Plan{Seed: 3, WriteErrRate: 1, TornWrites: true})
	a := store.Addr{Disk: 2, Stripe: 5, Chunk: 1}
	if err := s.WriteChunk(a, testPayload(a, 256)); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("torn write = %v, want ErrInjectedIO", err)
	}
	if _, err := dir.ReadChunk(a, make([]byte, 512)); !store.IsCorrupt(err) {
		t.Fatalf("torn chunk reads as %v, want ErrCorrupt", err)
	}
}

// TestStallInjection pins the latency hook: every StallEvery-th
// operation sleeps Stall, through the injectable sleeper.
func TestStallInjection(t *testing.T) {
	s := Wrap(store.NewMem(), Plan{StallEvery: 2, Stall: 5 * time.Millisecond})
	var slept []time.Duration
	s.sleep = func(d time.Duration) { slept = append(slept, d) }
	data := make([]byte, 8)
	for i := 0; i < 6; i++ {
		if err := s.WriteChunk(store.Addr{Stripe: i}, data); err != nil {
			t.Fatal(err)
		}
	}
	if len(slept) != 3 {
		t.Fatalf("6 ops at StallEvery=2 slept %d times, want 3", len(slept))
	}
	for _, d := range slept {
		if d != 5*time.Millisecond {
			t.Fatalf("stall = %v, want 5ms", d)
		}
	}
}

// gate holds every write inside the backend until released, so that all
// the writers a Store lets through are in flight together.
type gate struct {
	store.Backend
	entered chan<- struct{}
	release <-chan struct{}
}

func (g *gate) WriteChunk(a store.Addr, data []byte) error {
	g.entered <- struct{}{}
	<-g.release
	return g.Backend.WriteChunk(a, data)
}

// TestNoSpaceBudgetUnderConcurrentWriters pins that the ENOSPC budget is
// exact however writers interleave: of sixteen goroutines writing
// distinct addresses against a budget of five, five succeed, eleven see
// ErrNoSpace, and five chunks exist. No write completes before every
// writer has either reached the backend or been refused, the
// interleaving in which a budget checked in one lock section and spent
// in another lets all sixteen through.
func TestNoSpaceBudgetUnderConcurrentWriters(t *testing.T) {
	const writers, budget = 16, 5
	mem := store.NewMem()
	events := make(chan struct{}, 2*writers) // a writer's arrival at the backend, and its return
	release := make(chan struct{})
	s := Wrap(&gate{Backend: mem, entered: events, release: release}, Plan{NoSpaceAfterWrites: budget})
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = s.WriteChunk(store.Addr{Stripe: g}, make([]byte, 16))
			events <- struct{}{}
		}()
	}
	for g := 0; g < writers; g++ {
		<-events // none is the return of a gated write: the gate is still shut
	}
	close(release)
	wg.Wait()
	ok, noSpace := 0, 0
	for g, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrNoSpace):
			noSpace++
		default:
			t.Fatalf("writer %d: %v", g, err)
		}
	}
	present, err := mem.List(0)
	if err != nil {
		t.Fatal(err)
	}
	if ok != budget || noSpace != writers-budget || len(present) != budget {
		t.Fatalf("%d writes succeeded, %d saw ErrNoSpace, %d chunks present; want %d, %d and %d",
			ok, noSpace, len(present), budget, writers-budget, budget)
	}
}

// TestNoSpaceBudgetReturnedByFailedWrite pins the other half of the
// reservation: a write that held a slot and then failed gives it back.
func TestNoSpaceBudgetReturnedByFailedWrite(t *testing.T) {
	s := Wrap(store.NewMem(), Plan{NoSpaceAfterWrites: 1})
	if err := s.WriteChunk(store.Addr{Disk: -1}, nil); err == nil || errors.Is(err, ErrNoSpace) {
		t.Fatalf("write to an invalid address = %v, want the backend's own error", err)
	}
	if err := s.WriteChunk(store.Addr{}, nil); err != nil {
		t.Fatalf("first good write after a failed one: %v", err)
	}
	if err := s.WriteChunk(store.Addr{Stripe: 1}, nil); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("second good write = %v, want ErrNoSpace", err)
	}
}

// TestConcurrentWritesAndDepth is the store conformance suite's
// concurrent-writes case and WriteDepth row for this wrapper, which that
// suite cannot import: writers on distinct addresses do not interfere
// through a Store (over the durable Dir and over a wrapper stack), every
// chunk reads back whole, the operation counter saw each call once, and
// the inner backend's write and stripe depths are forwarded.
func TestConcurrentWritesAndDepth(t *testing.T) {
	dir, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	throttled, err := store.NewThrottle(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	type embedding struct{ store.Backend }
	procs := runtime.GOMAXPROCS(0)
	for name, tc := range map[string]struct {
		inner        store.Backend
		depth, lanes int
	}{
		"dir":                       {dir, store.WriteDepth(dir), procs},
		"instrument(throttle(dir))": {store.Instrument(throttled), store.WriteDepth(dir), procs},
		"mem":                       {store.NewMem(), 1, procs},
		"embedding(dir)":            {embedding{dir}, 1, 1},
	} {
		t.Run(name, func(t *testing.T) {
			s := Wrap(tc.inner, Plan{})
			if got := store.WriteDepth(s); got != tc.depth {
				t.Fatalf("WriteDepth = %d, want the inner backend's %d", got, tc.depth)
			}
			if got := store.WriteDepth(store.Instrument(s)); got != tc.depth {
				t.Fatalf("WriteDepth through an outer wrapper = %d, want %d", got, tc.depth)
			}
			if got, outer := store.StripeDepth(s), store.StripeDepth(store.Instrument(s)); got != tc.lanes || outer != tc.lanes {
				t.Fatalf("StripeDepth = %d, %d through an outer wrapper, want the inner backend's %d", got, outer, tc.lanes)
			}
			const writers, perWriter, disks, size = 8, 4, 3, 128
			var wg sync.WaitGroup
			errs := make([]error, writers)
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWriter && errs[g] == nil; i++ {
						a := store.Addr{Disk: (g + i) % disks, Stripe: g, Chunk: i}
						errs[g] = s.WriteChunk(a, testPayload(a, size))
					}
				}()
			}
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Fatalf("writer %d: %v", g, err)
				}
			}
			if s.Ops() != writers*perWriter {
				t.Fatalf("Ops = %d after %d writes", s.Ops(), writers*perWriter)
			}
			dst := make([]byte, size)
			for g := 0; g < writers; g++ {
				for i := 0; i < perWriter; i++ {
					a := store.Addr{Disk: (g + i) % disks, Stripe: g, Chunk: i}
					if n, err := s.ReadChunk(a, dst); err != nil || !bytes.Equal(dst[:n], testPayload(a, size)) {
						t.Fatalf("%v does not read back the bytes its writer stored (%v)", a, err)
					}
				}
			}
		})
	}
}
