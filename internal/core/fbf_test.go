package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fbf/internal/cache"
	"fbf/internal/grid"
)

func cid(n int) cache.ChunkID { return cache.ChunkID{Cell: grid.Coord{Row: n, Col: 0}} }

func prios(m map[int]int) map[cache.ChunkID]int {
	out := make(map[cache.ChunkID]int, len(m))
	for n, pr := range m {
		out[cid(n)] = pr
	}
	return out
}

func TestFBFRegistered(t *testing.T) {
	p := cache.MustNew("fbf", 4)
	if p.Name() != "fbf" {
		t.Fatalf("Name = %q", p.Name())
	}
	if _, ok := p.(cache.PriorityAware); !ok {
		t.Fatal("fbf must be PriorityAware")
	}
}

// TestFBFWarmUp mirrors Figure 5: chunks entering the cache land in the
// queue matching their priority.
func TestFBFWarmUp(t *testing.T) {
	f := NewFBF(8)
	f.SetPriorities(prios(map[int]int{1: 3, 2: 1, 3: 2, 4: 1, 5: 1}))
	for _, n := range []int{1, 2, 3, 4, 5} {
		if f.Request(cid(n)) {
			t.Fatalf("cold request %d hit", n)
		}
	}
	if f.QueueLen(3) != 1 || f.QueueLen(2) != 1 || f.QueueLen(1) != 3 {
		t.Fatalf("queue sizes = %d/%d/%d, want 1/1/3", f.QueueLen(3), f.QueueLen(2), f.QueueLen(1))
	}
	q3 := f.QueueContents(3)
	if len(q3) != 1 || q3[0] != cid(1) {
		t.Errorf("Queue3 = %v", q3)
	}
	q2 := f.QueueContents(2)
	if len(q2) != 1 || q2[0] != cid(3) {
		t.Errorf("Queue2 = %v", q2)
	}
}

// TestFBFDemotion mirrors Figure 6: a hit demotes the chunk one queue
// down; Queue3 → Queue2 → Queue1.
func TestFBFDemotion(t *testing.T) {
	f := NewFBF(8)
	f.SetPriorities(prios(map[int]int{1: 3}))
	f.Request(cid(1)) // miss → Queue3
	if !f.Request(cid(1)) {
		t.Fatal("second request should hit")
	}
	if f.QueueLen(3) != 0 || f.QueueLen(2) != 1 {
		t.Fatalf("after 1st hit: Q3=%d Q2=%d", f.QueueLen(3), f.QueueLen(2))
	}
	if !f.Request(cid(1)) {
		t.Fatal("third request should hit")
	}
	if f.QueueLen(2) != 0 || f.QueueLen(1) != 1 {
		t.Fatalf("after 2nd hit: Q2=%d Q1=%d", f.QueueLen(2), f.QueueLen(1))
	}
	// Further hits keep it in Queue1, refreshing recency.
	if !f.Request(cid(1)) || f.QueueLen(1) != 1 {
		t.Fatal("Queue1 hit misbehaved")
	}
}

// TestFBFReplacement mirrors Figure 7: eviction drains Queue1 before
// touching higher-priority queues, even when Queue2 chunks are older.
func TestFBFReplacement(t *testing.T) {
	f := NewFBF(3)
	f.SetPriorities(prios(map[int]int{1: 2, 2: 1, 3: 1, 4: 1, 5: 1}))
	f.Request(cid(1)) // → Queue2 (oldest overall)
	f.Request(cid(2)) // → Queue1
	f.Request(cid(3)) // → Queue1
	f.Request(cid(4)) // full: evict Queue1 LRU (2), NOT the older 1
	if f.Contains(cid(2)) {
		t.Error("Queue1 LRU should have been evicted")
	}
	if !f.Contains(cid(1)) {
		t.Error("Queue2 chunk must be protected")
	}
	f.Request(cid(5)) // evicts 3
	if f.Contains(cid(3)) || !f.Contains(cid(1)) {
		t.Error("second eviction wrong")
	}
	if f.Stats().Evictions != 2 {
		t.Errorf("Evictions = %d, want 2", f.Stats().Evictions)
	}
}

func TestFBFEvictionFallsBackToHigherQueues(t *testing.T) {
	f := NewFBF(2)
	f.SetPriorities(prios(map[int]int{1: 3, 2: 2, 3: 1}))
	f.Request(cid(1)) // Q3
	f.Request(cid(2)) // Q2
	f.Request(cid(3)) // full, Q1 empty → evict Q2 LRU (2)
	if f.Contains(cid(2)) {
		t.Error("should evict from Queue2 when Queue1 empty")
	}
	if !f.Contains(cid(1)) || !f.Contains(cid(3)) {
		t.Error("contents wrong")
	}
	// Now only Q3 (1) and Q1 (3) resident. Fill again.
	f.SetPriorities(prios(map[int]int{4: 3}))
	f.Request(cid(4)) // evicts Q1 (3)
	if f.Contains(cid(3)) || !f.Contains(cid(1)) || !f.Contains(cid(4)) {
		t.Error("fallback eviction wrong")
	}
	// Both resident chunks are in Q3 now (1 in Q3, 4 in Q3).
	f.SetPriorities(prios(map[int]int{5: 1}))
	f.Request(cid(5)) // must evict Q3 LRU (1)
	if f.Contains(cid(1)) || !f.Contains(cid(4)) || !f.Contains(cid(5)) {
		t.Error("Queue3 eviction wrong")
	}
}

func TestFBFDefaultPriorityIsOne(t *testing.T) {
	f := NewFBF(4)
	f.Request(cid(7)) // no dictionary at all
	if f.QueueLen(1) != 1 {
		t.Error("unknown chunk should land in Queue1")
	}
	f.SetPriorities(nil) // nil dictionary must be tolerated
	f.Request(cid(8))
	if f.QueueLen(1) != 2 {
		t.Error("nil dictionary broke default priority")
	}
}

func TestFBFZeroCapacity(t *testing.T) {
	f := NewFBF(0)
	for i := 0; i < 5; i++ {
		if f.Request(cid(1)) {
			t.Fatal("zero-capacity FBF hit")
		}
	}
	if f.Len() != 0 {
		t.Fatal("zero-capacity FBF stored chunks")
	}
}

func TestFBFReset(t *testing.T) {
	f := NewFBF(4)
	f.SetPriorities(prios(map[int]int{1: 3}))
	f.Request(cid(1))
	f.Reset()
	if f.Len() != 0 || f.Stats() != (cache.Stats{}) || f.Capacity() != 4 {
		t.Error("Reset incomplete")
	}
	// Priorities are cleared too: chunk 1 now defaults to Queue1.
	f.Request(cid(1))
	if f.QueueLen(1) != 1 {
		t.Error("Reset did not clear priorities")
	}
}

func TestFBFQueueInvariants(t *testing.T) {
	// Property: at all times Len() == sum of queue lengths <= capacity,
	// and hit/miss counters add up.
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := rng.Intn(6)
		f := NewFBF(capacity)
		f.SetPriorities(prios(map[int]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 5: 3}))
		var requests uint64
		for i := 0; i < 200; i++ {
			f.Request(cid(rng.Intn(8)))
			requests++
			total := f.QueueLen(1) + f.QueueLen(2) + f.QueueLen(3)
			if total != f.Len() || f.Len() > capacity {
				return false
			}
			s := f.Stats()
			if s.Hits+s.Misses != requests {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

// TestFBFBeatsLRUOnSchemeReplay is the paper's central claim in
// miniature: replaying a looped-scheme request stream through a small
// cache, FBF's hit count must beat LRU's.
func TestFBFBeatsLRUOnSchemeReplay(t *testing.T) {
	code := mustCode(t, "tip", 13)
	var schemes []*Scheme
	for stripe := 0; stripe < 40; stripe++ {
		e := PartialStripeError{Stripe: stripe, Disk: stripe % code.Disks(), Row: 0, Size: 6}
		s, err := GenerateScheme(code, e, StrategyLooped)
		if err != nil {
			t.Fatal(err)
		}
		schemes = append(schemes, s)
	}
	replay := func(p cache.Policy) cache.Stats {
		for _, s := range schemes {
			if pa, ok := p.(cache.PriorityAware); ok {
				pa.SetPriorities(s.PriorityIDs())
			}
			for _, id := range s.RequestIDs() {
				p.Request(id)
			}
		}
		return p.Stats()
	}
	// Cache smaller than one scheme's working set: the regime the paper
	// targets ("cache size is limited").
	capacity := 8
	fbf := replay(NewFBF(capacity))
	lru := replay(cache.NewLRU(capacity))
	if fbf.Hits <= lru.Hits {
		t.Errorf("FBF hits %d <= LRU hits %d at capacity %d", fbf.Hits, lru.Hits, capacity)
	}
}
