package core

import (
	"math/rand"
	"slices"
	"testing"

	"fbf/internal/cache"
	"fbf/internal/grid"
)

// indexModel is a map model of fbfIndex over a test-owned slab: model
// maps every resident id to its entry index in entries, where entry 0 is
// FBF's sentinel.
type indexModel struct {
	x       fbfIndex
	entries []fbfEntry
	model   map[cache.ChunkID]int32
	free    []int32 // entries no resident id holds
}

func newIndexModel() *indexModel {
	return &indexModel{entries: make([]fbfEntry, 1), model: map[cache.ChunkID]int32{}}
}

// add stores id in a free entry (or a new one) and puts it in the index.
func (m *indexModel) add(id cache.ChunkID) {
	var i int32
	if k := len(m.free); k > 0 {
		i, m.free = m.free[k-1], m.free[:k-1]
	} else {
		i = int32(len(m.entries))
		m.entries = append(m.entries, fbfEntry{})
	}
	m.entries[i] = fbfEntry{id: id}
	m.x.put(m.entries, i)
	m.model[id] = i
}

// drop removes the resident id from the index and frees its entry.
func (m *indexModel) drop(id cache.ChunkID) {
	i := m.model[id]
	m.x.remove(m.entries, i)
	delete(m.model, id)
	m.free = append(m.free, i)
}

// check asserts that the index holds exactly the model's entries, that
// every entry is reachable from its home slot through occupied slots
// only (the linear-probing invariant backward-shift deletion must keep),
// and that the table is at most a quarter full.
func (m *indexModel) check(t *testing.T) {
	t.Helper()
	x := &m.x
	if x.n != len(m.model) {
		t.Fatalf("index holds %d entries, model %d", x.n, len(m.model))
	}
	if 4*x.n > len(x.slots) && x.n > 0 {
		t.Fatalf("%d entries in %d slots: over a quarter load", x.n, len(x.slots))
	}
	mask := len(x.slots) - 1
	occupied := 0
	for k, i := range x.slots {
		if i == 0 {
			continue
		}
		occupied++
		id := m.entries[i].id
		if got, ok := m.model[id]; !ok || got != i {
			t.Fatalf("slot %d holds entry %d (%v), which the model does not", k, i, id)
		}
		for j := x.home(id); j != k; j = (j + 1) & mask {
			if x.slots[j] == 0 {
				t.Fatalf("%v at slot %d is cut off from its home %d by empty slot %d", id, k, x.home(id), j)
			}
		}
	}
	if occupied != x.n {
		t.Fatalf("%d occupied slots, n = %d", occupied, x.n)
	}
	for id, i := range m.model {
		if got := x.get(m.entries, id); got != i {
			t.Fatalf("get(%v) = %d, want %d", id, got, i)
		}
	}
}

// randomID draws from a small id space, so lookups hit and miss, with
// negative stripes and the full layout range in play.
func randomID(rng *rand.Rand, space int) cache.ChunkID {
	return cache.ChunkID{Stripe: rng.Intn(space) - 1, Cell: grid.Coord{Row: rng.Intn(4), Col: rng.Intn(8)}}
}

// TestFBFIndexMatchesMap replays random insert, lookup and evict
// sequences against a map model at several capacities: the index never
// holds more than capacity entries, as in FBF, and a full index evicts a
// random resident entry and refills that entry with the new id, as FBF's
// miss at capacity does.
func TestFBFIndexMatchesMap(t *testing.T) {
	for _, capacity := range []int{0, 1, 16, 1000} {
		rng := rand.New(rand.NewSource(int64(capacity) + 1))
		m := newIndexModel()
		var resident []cache.ChunkID
		evict := func() {
			k := rng.Intn(len(resident))
			m.drop(resident[k])
			resident[k] = resident[len(resident)-1]
			resident = resident[:len(resident)-1]
		}
		space := capacity/8 + 2
		kept := false
		for step := 0; step < 20000; step++ {
			id := randomID(rng, space)
			_, in := m.model[id]
			switch op := rng.Intn(10); {
			case op < 4: // lookup
				if got, want := m.x.get(m.entries, id), m.model[id]; got != want {
					t.Fatalf("cap %d step %d: get(%v) = %d, want %d", capacity, step, id, got, want)
				}
			case op < 8: // insert, evicting a random entry when full
				if in || capacity == 0 {
					continue
				}
				if len(resident) >= capacity {
					evict()
				}
				m.add(id)
				resident = append(resident, id)
				kept = true
			default: // evict a random resident entry
				if len(resident) > 0 {
					evict()
				}
			}
			if step%97 == 0 || capacity <= 16 {
				m.check(t)
			}
			if len(m.entries) > capacity+1 {
				t.Fatalf("cap %d step %d: %d entries beside the sentinel", capacity, step, len(m.entries)-1)
			}
		}
		m.check(t)
		if capacity > 0 && !kept {
			t.Fatalf("cap %d: the sequence never kept an entry", capacity)
		}
	}
}

// TestFBFIndexWrappedDeletes deletes, in many orders, from a probe run
// that wraps past the last slot of the table to the first: every
// backward shift across the wrap must keep the other entries reachable.
func TestFBFIndexWrappedDeletes(t *testing.T) {
	const slots, members = 32, 8 // 8 entries in 32 slots: a quarter load, no growth
	probe := fbfIndex{slots: make([]int32, slots)}
	var ids []cache.ChunkID
	for s := 0; len(ids) < members; s++ {
		id := cache.ChunkID{Stripe: s, Cell: grid.Coord{Row: s % 3, Col: s % 5}}
		if h := probe.home(id); h >= slots-3 || h == 0 {
			ids = append(ids, id)
		}
	}
	rng := rand.New(rand.NewSource(1))
	wrapped := false
	for trial := 0; trial < 500; trial++ {
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		m := newIndexModel()
		for _, id := range ids {
			m.add(id)
		}
		if len(m.x.slots) != slots {
			t.Fatalf("%d entries in %d slots, want %d", members, len(m.x.slots), slots)
		}
		for k, i := range m.x.slots {
			if i != 0 && k < m.x.home(m.entries[i].id) {
				wrapped = true
			}
		}
		m.check(t)
		for _, k := range rng.Perm(len(ids)) {
			m.drop(ids[k])
			m.check(t)
		}
	}
	if !wrapped {
		t.Fatal("no trial put an entry past the end of the table")
	}
}

// TestFBFIndexGrowth inserts across several doublings: the table doubles
// exactly when one more entry would pass a quarter load, and every entry
// stays reachable through each rehash.
func TestFBFIndexGrowth(t *testing.T) {
	m := newIndexModel()
	doublings := 0
	for i := 0; i < 1000; i++ {
		before := len(m.x.slots)
		m.add(cache.ChunkID{Stripe: i / 7, Cell: grid.Coord{Row: i % 7, Col: i % 13}})
		want := 8
		for 4*m.x.n > want {
			want *= 2
		}
		if len(m.x.slots) != want {
			t.Fatalf("%d entries in %d slots, want %d", m.x.n, len(m.x.slots), want)
		}
		if len(m.x.slots) != before {
			doublings++
			m.check(t)
		}
	}
	m.check(t)
	if doublings < 8 {
		t.Fatalf("%d doublings, want at least 8", doublings)
	}
}

// checkSlab asserts that FBF's slab is exactly its three queues: each
// queue's links agree forwards and backwards, its length is its walk,
// every entry sits in the queue it names, and the slab holds the
// sentinel and the resident chunks, nothing else. It returns the
// resident ids.
func checkSlab(t *testing.T, f *FBF) map[cache.ChunkID]bool {
	t.Helper()
	resident := map[cache.ChunkID]bool{}
	seen := 0
	for q := range f.queues {
		var fwd []int32
		for i, prev := f.queues[q].head, int32(0); i != 0; prev, i = i, f.entries[i].next {
			e := f.entries[i]
			if int(e.queue) != q || e.prev != prev {
				t.Fatalf("queue %d: entry %d names queue %d and prev %d, want %d", q+1, i, e.queue+1, e.prev, prev)
			}
			if resident[e.id] {
				t.Fatalf("%v is queued twice", e.id)
			}
			resident[e.id] = true
			fwd = append(fwd, i)
		}
		var back []int32
		for i := f.queues[q].tail; i != 0; i = f.entries[i].prev {
			back = append(back, i)
		}
		slices.Reverse(back)
		if !slices.Equal(fwd, back) || int(f.queues[q].n) != len(fwd) {
			t.Fatalf("queue %d: forward %v, backward %v, length %d", q+1, fwd, back, f.queues[q].n)
		}
		seen += len(fwd)
	}
	if seen != max(len(f.entries)-1, 0) {
		t.Fatalf("queues hold %d entries, slab %d beside the sentinel", seen, len(f.entries)-1)
	}
	return resident
}

// TestFBFIndexAgreesWithQueues drives FBF itself with random requests and
// priorities at several capacities: the slab must be exactly the queues,
// and Len and Contains, which read the index, must agree with them.
func TestFBFIndexAgreesWithQueues(t *testing.T) {
	for _, capacity := range []int{0, 1, 16, 1000} {
		rng := rand.New(rand.NewSource(int64(capacity) + 7))
		f := NewFBF(capacity)
		space := capacity/8 + 2
		prio := map[cache.ChunkID]int{}
		for i := 0; i < 200; i++ {
			prio[randomID(rng, space)] = 1 + rng.Intn(4)
		}
		f.SetPriorities(prio)
		for step := 0; step < 20000; step++ {
			f.Request(randomID(rng, space))
			if step%101 != 0 && capacity > 16 {
				continue
			}
			resident := checkSlab(t, f)
			if f.Len() != len(resident) || f.Len() > capacity {
				t.Fatalf("cap %d step %d: Len = %d, queues hold %d", capacity, step, f.Len(), len(resident))
			}
			for q := 1; q <= 3; q++ {
				for _, id := range f.QueueContents(q) {
					if !f.Contains(id) {
						t.Fatalf("cap %d step %d: queued %v not Contained", capacity, step, id)
					}
				}
			}
			for k := 0; k < 50; k++ {
				id := randomID(rng, space)
				if f.Contains(id) != resident[id] {
					t.Fatalf("cap %d step %d: Contains(%v) = %v, queues say %v", capacity, step, id, !resident[id], resident[id])
				}
			}
		}
	}
}
