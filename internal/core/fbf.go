package core

import (
	"fbf/internal/cache"
	"fbf/internal/ds"
)

// FBF is the Favorable Block First cache policy (Algorithm 1 of the
// paper). Chunks are held in three queues by priority — the number of
// parity chains sharing them in the active recovery scheme:
//
//   - Queue3 holds chunks shared by three or more chains,
//   - Queue2 holds chunks shared by two chains,
//   - Queue1 holds chunks referenced once.
//
// On a hit, a chunk is demoted one queue (its remaining reuse count has
// dropped); within Queue1 a hit refreshes recency. When space runs out,
// victims come from Queue1 first, then Queue2, then Queue3; each queue
// is LRU internally.
//
// FBF implements cache.Policy and cache.PriorityAware. The simulator's
// SOR worker installs each recovery task's priorities with SetScheme;
// callers whose dictionary spans schemes or is built by hand (DOR, the
// cache checker, the examples) use SetPriorities.
type FBF struct {
	capacity int
	stats    cache.Stats
	prio     interface{ priority(cache.ChunkID) int } // share count, 0 if none
	queues   [3]ds.List[fbfEntry]                     // [0] = Queue1 ... [2] = Queue3
	index    fbfIndex

	// free recycles evicted list nodes, so a full cache churns through
	// misses without allocating.
	free []*ds.Node[fbfEntry]
}

type fbfEntry struct {
	id    cache.ChunkID
	queue int // 0-based queue index
}

// dictionary is the lookup SetPriorities installs.
type dictionary map[cache.ChunkID]int

func (d dictionary) priority(id cache.ChunkID) int { return d[id] }

// NewFBF returns an FBF cache holding up to capacity chunks. Until
// priorities are installed every chunk defaults to priority 1.
func NewFBF(capacity int) *FBF {
	return &FBF{
		capacity: capacity,
		prio:     dictionary(nil),
	}
}

var (
	_ cache.Policy        = (*FBF)(nil)
	_ cache.PriorityAware = (*FBF)(nil)
)

func init() {
	cache.Register("fbf", func(c int) cache.Policy { return NewFBF(c) })
}

// Name implements cache.Policy.
func (f *FBF) Name() string { return "fbf" }

// Capacity implements cache.Policy.
func (f *FBF) Capacity() int { return f.capacity }

// Len implements cache.Policy.
func (f *FBF) Len() int { return f.index.n }

// Contains implements cache.Policy.
func (f *FBF) Contains(id cache.ChunkID) bool { return f.index.get(id) != nil }

// Stats implements cache.Policy.
func (f *FBF) Stats() cache.Stats { return f.stats }

// SetPriorities implements cache.PriorityAware: it installs the priority
// dictionary of the recovery scheme about to be replayed. Priorities of
// already-resident chunks are left as their current queue positions (the
// paper demotes on use rather than re-promoting).
func (f *FBF) SetPriorities(priorities map[cache.ChunkID]int) {
	f.prio = dictionary(priorities)
}

// SetScheme installs s's priorities (s must not be nil) as
// SetPriorities(s.PriorityIDs()) would, reading the scheme's share counts
// by cell index instead of building the map. It reads the counts as
// RegenerateScheme produced them, so s.Priorities must not be edited.
func (f *FBF) SetScheme(s *Scheme) { f.prio = s }

// priorityOf returns the clamped FBF priority (1..3) for a chunk.
func (f *FBF) priorityOf(id cache.ChunkID) int {
	return clampPriority(f.prio.priority(id))
}

// Request implements cache.Policy, following Algorithm 1.
func (f *FBF) Request(id cache.ChunkID) bool {
	if n := f.index.get(id); n != nil {
		f.stats.Hits++
		switch q := n.Val.queue; q {
		case 2, 1: // Queue3 → Queue2, Queue2 → Queue1: demote.
			f.queues[q].Remove(n)
			n.Val.queue--
			f.queues[q-1].PushBackNode(n)
		default: // Queue1: refresh recency (PushToEnd).
			f.queues[0].MoveToBack(n)
		}
		return true
	}
	f.stats.Misses++
	if f.capacity == 0 {
		return false
	}
	if f.index.n >= f.capacity {
		f.evict()
	}
	q := f.priorityOf(id) - 1
	var n *ds.Node[fbfEntry]
	if k := len(f.free); k > 0 {
		n = f.free[k-1]
		f.free = f.free[:k-1]
	} else {
		n = &ds.Node[fbfEntry]{}
	}
	n.Val = fbfEntry{id: id, queue: q}
	f.queues[q].PushBackNode(n)
	f.index.put(n)
	return false
}

// evict releases one chunk: Queue1 first, then Queue2, then Queue3, LRU
// within each queue.
func (f *FBF) evict() {
	for q := 0; q < 3; q++ {
		if n := f.queues[q].Front(); n != nil {
			f.queues[q].Remove(n)
			f.index.remove(n)
			f.free = append(f.free, n)
			f.stats.Evictions++
			return
		}
	}
}

// fbfIndex maps a resident chunk to its list node. It is an
// open-addressing table of node pointers: linear probing over a
// power-of-two number of slots, doubled when it would pass half load,
// and backward-shift deletion, so no slot ever holds a tombstone. The
// zero value is an empty index.
type fbfIndex struct {
	slots []*ds.Node[fbfEntry]
	n     int // resident nodes
}

// home returns id's first probe slot: a multiplicative hash of
// (stripe, row, col), top bits taken as the slot.
func (x *fbfIndex) home(id cache.ChunkID) int {
	h := uint64(id.Stripe)*0x9e3779b97f4a7c15 ^ uint64(id.Cell.Row)*0xc2b2ae3d27d4eb4f ^ uint64(id.Cell.Col)*0x165667b19e3779f9
	h ^= h >> 32
	h *= 0x9e3779b97f4a7c15
	return int(h>>32) & (len(x.slots) - 1)
}

// get returns id's node, or nil when id is not resident.
func (x *fbfIndex) get(id cache.ChunkID) *ds.Node[fbfEntry] {
	if x.n == 0 {
		return nil
	}
	mask := len(x.slots) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		n := x.slots[i]
		if n == nil || n.Val.id == id {
			return n
		}
	}
}

// put adds n, whose id must not be resident.
func (x *fbfIndex) put(n *ds.Node[fbfEntry]) {
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		x.slots = make([]*ds.Node[fbfEntry], max(8, 2*len(old)))
		for _, m := range old {
			if m != nil {
				x.insert(m)
			}
		}
	}
	x.insert(n)
	x.n++
}

// insert places n in the first free slot of its probe sequence.
func (x *fbfIndex) insert(n *ds.Node[fbfEntry]) {
	mask := len(x.slots) - 1
	i := x.home(n.Val.id)
	for x.slots[i] != nil {
		i = (i + 1) & mask
	}
	x.slots[i] = n
}

// remove deletes the resident node n. Each later node of the probe run
// that may live in the freed slot (its home is not cyclically after the
// slot) moves back into it, and the slot it left is freed in turn, so
// every node stays reachable from its home without tombstones.
func (x *fbfIndex) remove(n *ds.Node[fbfEntry]) {
	mask := len(x.slots) - 1
	i := x.home(n.Val.id)
	for x.slots[i] != n {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.slots[j] != nil; j = (j + 1) & mask {
		if (j-x.home(x.slots[j].Val.id))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = nil
	x.n--
}

// Reset implements cache.Policy.
func (f *FBF) Reset() {
	*f = *NewFBF(f.capacity)
}

// QueueLen returns the population of Queue1, Queue2 or Queue3 (queue in
// 1..3); used by tests and the walkthrough example reproducing the
// paper's Figures 5–7.
func (f *FBF) QueueLen(queue int) int { return f.queues[queue-1].Len() }

// QueueContents returns the ids in the given queue (1..3), LRU first.
func (f *FBF) QueueContents(queue int) []cache.ChunkID {
	var out []cache.ChunkID
	for n := f.queues[queue-1].Front(); n != nil; n = n.Next() {
		out = append(out, n.Val.id)
	}
	return out
}
