package core

import "fbf/internal/cache"

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
//
// The resident chunks live in one pointer-free slab, entries: the
// queues link them by index and index finds one by chunk id, so the
// garbage collector scans none of it. Entry 0 is a sentinel, so index 0
// means none and the zero queue is empty. An eviction frees exactly the
// entry the miss that caused it refills, so there is no free list.
type FBF struct {
	capacity int
	stats    cache.Stats
	prio     interface{ priority(cache.ChunkID) int } // share count, 0 if none
	entries  []fbfEntry
	queues   [3]fbfQueue // [0] = Queue1 ... [2] = Queue3
	index    fbfIndex
}

// fbfEntry is one resident chunk: its queue and its neighbours there.
type fbfEntry struct {
	id         cache.ChunkID
	prev, next int32
	queue      int8 // 0-based queue index
}

// fbfQueue is one LRU queue over the slab: its first and last entry and
// its population.
type fbfQueue struct{ head, tail, n int32 }

// dictionary is the lookup SetPriorities installs.
type dictionary map[cache.ChunkID]int

func (d dictionary) priority(id cache.ChunkID) int { return d[id] }

// NewFBF returns an FBF cache holding up to capacity chunks. Until
// priorities are installed every chunk defaults to priority 1.
func NewFBF(capacity int) *FBF {
	return &FBF{capacity: capacity, prio: dictionary(nil)}
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
func (f *FBF) Contains(id cache.ChunkID) bool { return f.index.get(f.entries, id) != 0 }

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
// RegenerateScheme produced them, so s.Priorities must not be edited,
// and s must not be refilled while it is installed.
func (f *FBF) SetScheme(s *Scheme) { f.prio = s }

// priorityOf returns the clamped FBF priority (1..3) for a chunk.
func (f *FBF) priorityOf(id cache.ChunkID) int {
	return clampPriority(f.prio.priority(id))
}

// Request implements cache.Policy, following Algorithm 1.
func (f *FBF) Request(id cache.ChunkID) bool {
	if i := f.index.get(f.entries, id); i != 0 {
		// Queue3 → Queue2, Queue2 → Queue1: demote; in Queue1, refresh
		// recency (PushToEnd).
		f.stats.Hits++
		f.unlink(i)
		if e := &f.entries[i]; e.queue > 0 {
			e.queue--
		}
		f.pushBack(i)
		return true
	}
	f.stats.Misses++
	if f.capacity == 0 {
		return false
	}
	var i int32
	if f.index.n >= f.capacity {
		i = f.evict()
	} else {
		if f.entries == nil {
			// The sentinel, and room for 64 chunks before the first
			// growth: a simulator partition holds 2 to 512, mostly 16
			// or 32, and a sparse large cache should not pay for all.
			f.entries = make([]fbfEntry, 1, 1+min(f.capacity, 64))
		}
		i = int32(len(f.entries))
		f.entries = append(f.entries, fbfEntry{})
	}
	f.entries[i] = fbfEntry{id: id, queue: int8(f.priorityOf(id) - 1)}
	f.pushBack(i)
	f.index.put(f.entries, i)
	return false
}

// evict releases one chunk — Queue1 first, then Queue2, then Queue3, LRU
// within each queue — and returns its entry for reuse.
func (f *FBF) evict() int32 {
	q := 0
	for f.queues[q].head == 0 {
		q++
	}
	i := f.queues[q].head
	f.unlink(i)
	f.index.remove(f.entries, i)
	f.stats.Evictions++
	return i
}

// pushBack links entry i at the back (MRU end) of its queue.
func (f *FBF) pushBack(i int32) {
	e := &f.entries[i]
	q := &f.queues[e.queue]
	e.prev, e.next = q.tail, 0
	f.entries[q.tail].next = i // the sentinel's when the queue is empty
	if q.head == 0 {
		q.head = i
	}
	q.tail = i
	q.n++
}

// unlink takes entry i out of its queue.
func (f *FBF) unlink(i int32) {
	e := &f.entries[i]
	q := &f.queues[e.queue]
	f.entries[e.prev].next = e.next
	f.entries[e.next].prev = e.prev
	if q.head == i {
		q.head = e.next
	}
	if q.tail == i {
		q.tail = e.prev
	}
	q.n--
}

// Reset implements cache.Policy.
func (f *FBF) Reset() {
	*f = *NewFBF(f.capacity)
}

// QueueLen returns the population of Queue1, Queue2 or Queue3 (queue in
// 1..3); used by tests and the walkthrough example reproducing the
// paper's Figures 5–7.
func (f *FBF) QueueLen(queue int) int { return int(f.queues[queue-1].n) }

// QueueContents returns the ids in the given queue (1..3), LRU first.
func (f *FBF) QueueContents(queue int) []cache.ChunkID {
	var out []cache.ChunkID
	for i := f.queues[queue-1].head; i != 0; i = f.entries[i].next {
		out = append(out, f.entries[i].id)
	}
	return out
}
