package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"fbf/internal/grid"
)

func id(n int) ChunkID { return ChunkID{Stripe: 0, Cell: grid.Coord{Row: n, Col: 0}} }

func ids(ns ...int) []ChunkID {
	out := make([]ChunkID, len(ns))
	for i, n := range ns {
		out[i] = id(n)
	}
	return out
}

func TestChunkIDString(t *testing.T) {
	got := ChunkID{Stripe: 3, Cell: grid.Coord{Row: 1, Col: 2}}.String()
	if got != "S3:C(1,2)" {
		t.Errorf("String() = %q", got)
	}
}

func TestStats(t *testing.T) {
	s := Stats{Hits: 3, Misses: 1}
	if s.Requests() != 4 {
		t.Errorf("Requests = %d", s.Requests())
	}
	if s.HitRatio() != 0.75 {
		t.Errorf("HitRatio = %f", s.HitRatio())
	}
	if (Stats{}).HitRatio() != 0 {
		t.Error("empty HitRatio should be 0")
	}
}

func TestRegistry(t *testing.T) {
	// "fbf" is registered by internal/core (register_fbf_test.go).
	if got, want := fmt.Sprint(Names()), "[arc fbf fifo lfu lru opt]"; got != want {
		t.Errorf("Names() = %s, want %s", got, want)
	}
	if _, err := New("bogus", 4); err == nil {
		t.Error("New(bogus) should fail")
	}
	if _, err := New("lru", -1); err == nil {
		t.Error("negative capacity should fail")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustNew should panic")
			}
		}()
		MustNew("bogus", 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate Register should panic")
			}
		}()
		Register("lru", func(int) Policy { return nil })
	}()
}

// conformance exercises invariants every policy must satisfy.
func conformance(t *testing.T, name string) {
	t.Helper()
	t.Run("capacity-respected", func(t *testing.T) {
		p := MustNew(name, 4)
		for i := 0; i < 100; i++ {
			p.Request(id(i % 17))
			if p.Len() > p.Capacity() {
				t.Fatalf("Len %d > Capacity %d", p.Len(), p.Capacity())
			}
		}
	})
	t.Run("hit-iff-contains", func(t *testing.T) {
		p := MustNew(name, 8)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 500; i++ {
			x := id(rng.Intn(20))
			resident := p.Contains(x)
			hit := p.Request(x)
			if hit != resident {
				t.Fatalf("request %v: hit=%v but Contains=%v", x, hit, resident)
			}
		}
	})
	t.Run("stats-consistent", func(t *testing.T) {
		p := MustNew(name, 4)
		rng := rand.New(rand.NewSource(2))
		var hits, misses uint64
		for i := 0; i < 300; i++ {
			if p.Request(id(rng.Intn(12))) {
				hits++
			} else {
				misses++
			}
		}
		s := p.Stats()
		if s.Hits != hits || s.Misses != misses {
			t.Fatalf("stats %+v, counted hits=%d misses=%d", s, hits, misses)
		}
		if s.Evictions > s.Misses {
			t.Fatalf("evictions %d > misses %d", s.Evictions, s.Misses)
		}
	})
	t.Run("reset", func(t *testing.T) {
		p := MustNew(name, 4)
		for i := 0; i < 10; i++ {
			p.Request(id(i))
		}
		p.Reset()
		if p.Len() != 0 || p.Stats() != (Stats{}) {
			t.Fatalf("Reset left Len=%d stats=%+v", p.Len(), p.Stats())
		}
		if p.Contains(id(9)) {
			t.Fatal("Reset left residents")
		}
		if p.Capacity() != 4 {
			t.Fatal("Reset changed capacity")
		}
	})
	t.Run("zero-capacity", func(t *testing.T) {
		p := MustNew(name, 0)
		for i := 0; i < 10; i++ {
			if p.Request(id(i % 2)) {
				t.Fatal("zero-capacity cache produced a hit")
			}
			if p.Len() != 0 {
				t.Fatal("zero-capacity cache holds chunks")
			}
		}
	})
	t.Run("capacity-one", func(t *testing.T) {
		p := MustNew(name, 1)
		p.Request(id(1))
		if !p.Request(id(1)) {
			t.Fatal("immediate re-request should hit")
		}
		p.Request(id(2))
		if p.Len() != 1 {
			t.Fatalf("Len = %d, want 1", p.Len())
		}
	})
	t.Run("name", func(t *testing.T) {
		p := MustNew(name, 2)
		if p.Name() != name {
			t.Fatalf("Name() = %q, want %q", p.Name(), name)
		}
	})
}

func TestConformanceAllPolicies(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) { conformance(t, name) })
	}
}

func TestFIFOOrder(t *testing.T) {
	p := NewFIFO(3)
	for _, n := range ids(1, 2, 3) {
		p.Request(n)
	}
	p.Request(id(1)) // hit; FIFO must NOT refresh
	p.Request(id(4)) // evicts 1 (oldest by insertion)
	if p.Contains(id(1)) {
		t.Error("FIFO should have evicted 1")
	}
	if !p.Contains(id(2)) || !p.Contains(id(3)) || !p.Contains(id(4)) {
		t.Error("FIFO contents wrong")
	}
}

func TestLRUOrder(t *testing.T) {
	p := NewLRU(3)
	for _, n := range ids(1, 2, 3) {
		p.Request(n)
	}
	p.Request(id(1)) // refreshes 1; LRU order now 2,3,1
	p.Request(id(4)) // evicts 2
	if p.Contains(id(2)) {
		t.Error("LRU should have evicted 2")
	}
	if !p.Contains(id(1)) || !p.Contains(id(3)) || !p.Contains(id(4)) {
		t.Error("LRU contents wrong")
	}
}

func TestLFUEvictsLowestFrequency(t *testing.T) {
	p := NewLFU(3)
	p.Request(id(1))
	p.Request(id(1)) // freq 2
	p.Request(id(2))
	p.Request(id(2)) // freq 2
	p.Request(id(3)) // freq 1
	p.Request(id(4)) // evicts 3 (lowest freq)
	if p.Contains(id(3)) {
		t.Error("LFU should have evicted 3")
	}
	if !p.Contains(id(1)) || !p.Contains(id(2)) || !p.Contains(id(4)) {
		t.Error("LFU contents wrong")
	}
}

func TestLFUTieBrokenByLRU(t *testing.T) {
	p := NewLFU(2)
	p.Request(id(1))
	p.Request(id(2)) // both freq 1; 1 is least recent
	p.Request(id(3)) // evicts 1
	if p.Contains(id(1)) || !p.Contains(id(2)) {
		t.Error("LFU tie-break wrong")
	}
}

func TestLFUMinFreqTracking(t *testing.T) {
	p := NewLFU(2)
	p.Request(id(1))
	p.Request(id(1))
	p.Request(id(1)) // freq 3
	p.Request(id(2)) // freq 1
	p.Request(id(2)) // freq 2
	p.Request(id(3)) // must evict 2 (freq 2 < 3), not 1
	if p.Contains(id(2)) || !p.Contains(id(1)) || !p.Contains(id(3)) {
		t.Error("LFU minFreq tracking wrong")
	}
}

func TestARCGhostPromotion(t *testing.T) {
	p := NewARC(2)
	p.Request(id(1))
	p.Request(id(1)) // 1 promoted to T2
	p.Request(id(2)) // T1={2}, T2={1}
	p.Request(id(3)) // replace() demotes 2 into the B1 ghost list
	if p.Contains(id(2)) {
		t.Fatal("2 should not be resident")
	}
	before := p.TargetP()
	p.Request(id(2)) // ghost hit: p grows, 2 promoted to T2
	if !p.Contains(id(2)) {
		t.Error("ghost hit should re-admit 2")
	}
	if p.TargetP() <= before {
		t.Errorf("B1 ghost hit should raise target p (was %d, now %d)", before, p.TargetP())
	}
}

func TestARCScanResistance(t *testing.T) {
	// A long one-shot scan should not flush a small, hot working set.
	p := NewARC(8)
	hot := ids(100, 101, 102, 103)
	for round := 0; round < 6; round++ {
		for _, h := range hot {
			p.Request(h)
		}
	}
	for i := 0; i < 200; i++ { // cold scan
		p.Request(id(i))
		for _, h := range hot {
			p.Request(h)
		}
	}
	s := p.Stats()
	lru := NewLRU(8)
	for round := 0; round < 6; round++ {
		for _, h := range hot {
			lru.Request(h)
		}
	}
	for i := 0; i < 200; i++ {
		lru.Request(id(i))
		for _, h := range hot {
			lru.Request(h)
		}
	}
	if s.Hits < lru.Stats().Hits {
		t.Errorf("ARC hits %d < LRU hits %d under scan+hot mix", s.Hits, lru.Stats().Hits)
	}
}

func TestBeladyOptimalOnKnownTrace(t *testing.T) {
	// Trace: 1 2 3 1 2 3, capacity 2. OPT achieves 2 hits (keep 1 then 2
	// across the 3s by bypassing/evicting farthest), LRU achieves 0.
	trace := ids(1, 2, 3, 1, 2, 3)
	opt := NewBelady(2)
	opt.SetFuture(trace)
	for _, x := range trace {
		opt.Request(x)
	}
	if got := opt.Stats().Hits; got < 2 {
		t.Errorf("OPT hits = %d, want >= 2", got)
	}
	lru := NewLRU(2)
	for _, x := range trace {
		lru.Request(x)
	}
	if lru.Stats().Hits != 0 {
		t.Errorf("LRU hits = %d, want 0 (sanity)", lru.Stats().Hits)
	}
}

func TestBeladyUpperBoundsAllPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		n := 300
		trace := make([]ChunkID, n)
		for i := range trace {
			trace[i] = id(rng.Intn(24))
		}
		capacity := 2 + rng.Intn(8)
		opt := NewBelady(capacity)
		opt.SetFuture(trace)
		for _, x := range trace {
			opt.Request(x)
		}
		optHits := opt.Stats().Hits
		for _, name := range Names() {
			if name == "opt" {
				continue
			}
			p := MustNew(name, capacity)
			for _, x := range trace {
				p.Request(x)
			}
			if h := p.Stats().Hits; h > optHits {
				t.Errorf("trial %d: %s hits %d > OPT hits %d (capacity %d)", trial, name, h, optHits, capacity)
			}
		}
	}
}

// referenceLRU is an intentionally naive model used to cross-check the
// linked-list LRU.
type referenceLRU struct {
	capacity int
	order    []ChunkID // index 0 = LRU
}

func (r *referenceLRU) request(x ChunkID) bool {
	for i, y := range r.order {
		if y == x {
			r.order = append(append(append([]ChunkID{}, r.order[:i]...), r.order[i+1:]...), x)
			return true
		}
	}
	if r.capacity > 0 {
		if len(r.order) >= r.capacity {
			r.order = r.order[1:]
		}
		r.order = append(r.order, x)
	}
	return false
}

func TestLRUMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		capacity := rng.Intn(6)
		p := NewLRU(capacity)
		ref := &referenceLRU{capacity: capacity}
		for i := 0; i < 400; i++ {
			x := id(rng.Intn(15))
			if got, want := p.Request(x), ref.request(x); got != want {
				t.Fatalf("trial %d step %d: LRU hit=%v, reference=%v", trial, i, got, want)
			}
		}
	}
}

func TestBeladySetFutureResetsCursor(t *testing.T) {
	opt := NewBelady(2)
	first := ids(1, 2, 1)
	opt.SetFuture(first)
	for _, x := range first {
		opt.Request(x)
	}
	second := ids(2, 1, 2)
	opt.SetFuture(second)
	hits := 0
	for _, x := range second {
		if opt.Request(x) {
			hits++
		}
	}
	if hits == 0 {
		t.Error("residents should survive SetFuture and produce hits")
	}
}
