package core

import (
	"math/rand"
	"testing"

	"fbf/internal/cache"
	"fbf/internal/ds"
	"fbf/internal/grid"
)

// checkIndex asserts that x holds exactly model's nodes, that every node
// is reachable from its home slot through occupied slots only (the
// linear-probing invariant backward-shift deletion must keep), and that
// the table is at most half full.
func checkIndex(t *testing.T, x *fbfIndex, model map[cache.ChunkID]*ds.Node[fbfEntry]) {
	t.Helper()
	if x.n != len(model) {
		t.Fatalf("index holds %d nodes, model %d", x.n, len(model))
	}
	if 2*x.n > len(x.slots) && x.n > 0 {
		t.Fatalf("%d nodes in %d slots: over half load", x.n, len(x.slots))
	}
	mask := len(x.slots) - 1
	occupied := 0
	for i, n := range x.slots {
		if n == nil {
			continue
		}
		occupied++
		if model[n.Val.id] != n {
			t.Fatalf("slot %d holds %v, which the model does not", i, n.Val.id)
		}
		for j := x.home(n.Val.id); j != i; j = (j + 1) & mask {
			if x.slots[j] == nil {
				t.Fatalf("%v at slot %d is cut off from its home %d by empty slot %d", n.Val.id, i, x.home(n.Val.id), j)
			}
		}
	}
	if occupied != x.n {
		t.Fatalf("%d occupied slots, n = %d", occupied, x.n)
	}
	for id, n := range model {
		if got := x.get(id); got != n {
			t.Fatalf("get(%v) = %p, want %p", id, got, n)
		}
	}
}

func indexNode(id cache.ChunkID) *ds.Node[fbfEntry] {
	return &ds.Node[fbfEntry]{Val: fbfEntry{id: id}}
}

// randomID draws from a small id space, so lookups hit and miss, with
// negative stripes and the full layout range in play.
func randomID(rng *rand.Rand, space int) cache.ChunkID {
	return cache.ChunkID{Stripe: rng.Intn(space) - 1, Cell: grid.Coord{Row: rng.Intn(4), Col: rng.Intn(8)}}
}

// TestFBFIndexMatchesMap replays random insert, lookup and evict
// sequences against a map model at several capacities: the index never
// holds more than capacity nodes, as in FBF, and a full index evicts a
// random resident node before it admits another.
func TestFBFIndexMatchesMap(t *testing.T) {
	for _, capacity := range []int{0, 1, 16, 1000} {
		rng := rand.New(rand.NewSource(int64(capacity) + 1))
		var x fbfIndex
		model := map[cache.ChunkID]*ds.Node[fbfEntry]{}
		var resident []cache.ChunkID
		evict := func() {
			k := rng.Intn(len(resident))
			victim := resident[k]
			x.remove(model[victim])
			delete(model, victim)
			resident[k] = resident[len(resident)-1]
			resident = resident[:len(resident)-1]
		}
		space := capacity/8 + 2
		for step := 0; step < 20000; step++ {
			id := randomID(rng, space)
			switch op := rng.Intn(10); {
			case op < 4: // lookup
				if got, want := x.get(id), model[id]; got != want {
					t.Fatalf("cap %d step %d: get(%v) = %p, want %p", capacity, step, id, got, want)
				}
			case op < 8: // insert, evicting a random node when full
				if model[id] != nil || capacity == 0 {
					continue
				}
				if len(resident) >= capacity {
					evict()
				}
				n := indexNode(id)
				x.put(n)
				model[id] = n
				resident = append(resident, id)
			default: // evict a random resident node
				if len(resident) > 0 {
					evict()
				}
			}
			if step%97 == 0 || capacity <= 16 {
				checkIndex(t, &x, model)
			}
		}
		checkIndex(t, &x, model)
		if capacity > 0 && len(resident) == 0 {
			t.Fatalf("cap %d: the sequence never kept a node", capacity)
		}
	}
}

// TestFBFIndexWrappedDeletes deletes, in many orders, from a probe run
// that wraps past the last slot of the table to the first: every
// backward shift across the wrap must keep the other nodes reachable.
func TestFBFIndexWrappedDeletes(t *testing.T) {
	const slots, members = 16, 8 // 8 nodes in 16 slots: half load, no growth
	probe := fbfIndex{slots: make([]*ds.Node[fbfEntry], slots)}
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
		var x fbfIndex
		model := map[cache.ChunkID]*ds.Node[fbfEntry]{}
		for _, id := range ids {
			n := indexNode(id)
			x.put(n)
			model[id] = n
		}
		if len(x.slots) != slots {
			t.Fatalf("%d nodes in %d slots, want %d", members, len(x.slots), slots)
		}
		for i, n := range x.slots {
			if n != nil && i < x.home(n.Val.id) {
				wrapped = true
			}
		}
		checkIndex(t, &x, model)
		order := rng.Perm(len(ids))
		for _, k := range order {
			x.remove(model[ids[k]])
			delete(model, ids[k])
			checkIndex(t, &x, model)
		}
	}
	if !wrapped {
		t.Fatal("no trial put a node past the end of the table")
	}
}

// TestFBFIndexGrowth inserts across several doublings: the table doubles
// exactly when one more node would pass half load, and every node stays
// reachable through each rehash.
func TestFBFIndexGrowth(t *testing.T) {
	var x fbfIndex
	model := map[cache.ChunkID]*ds.Node[fbfEntry]{}
	doublings := 0
	for i := 0; i < 1000; i++ {
		id := cache.ChunkID{Stripe: i / 7, Cell: grid.Coord{Row: i % 7, Col: i % 13}}
		n := indexNode(id)
		before := len(x.slots)
		x.put(n)
		model[id] = n
		want := 8
		for 2*x.n > want {
			want *= 2
		}
		if len(x.slots) != want {
			t.Fatalf("%d nodes in %d slots, want %d", x.n, len(x.slots), want)
		}
		if len(x.slots) != before {
			doublings++
			checkIndex(t, &x, model)
		}
	}
	checkIndex(t, &x, model)
	if doublings < 8 {
		t.Fatalf("%d doublings, want at least 8", doublings)
	}
}

// TestFBFIndexAgreesWithQueues drives FBF itself with random requests and
// priorities at several capacities: Len and Contains, which read the
// index, must agree with the queues' contents.
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
			if step%101 != 0 {
				continue
			}
			resident := map[cache.ChunkID]bool{}
			for q := 1; q <= 3; q++ {
				for _, id := range f.QueueContents(q) {
					resident[id] = true
				}
			}
			if f.Len() != len(resident) || f.Len() > capacity {
				t.Fatalf("cap %d step %d: Len = %d, queues hold %d", capacity, step, f.Len(), len(resident))
			}
			for id := range resident {
				if !f.Contains(id) {
					t.Fatalf("cap %d step %d: queued %v not Contained", capacity, step, id)
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
