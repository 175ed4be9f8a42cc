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
// FBF implements cache.Policy and cache.PriorityAware; engines install
// each recovery task's priority dictionary via SetPriorities before
// replaying its requests.
type FBF struct {
	capacity   int
	stats      cache.Stats
	priorities map[cache.ChunkID]int
	queues     [3]ds.List[cache.ChunkID] // [0] = Queue1 ... [2] = Queue3
	index      map[cache.ChunkID]*fbfEntry

	// free recycles evicted entries together with their list nodes, so
	// a full cache churns through misses without allocating.
	free []*fbfEntry
}

type fbfEntry struct {
	queue int // 0-based queue index
	node  *ds.Node[cache.ChunkID]
}

// NewFBF returns an FBF cache holding up to capacity chunks. Until
// SetPriorities is called every chunk defaults to priority 1.
func NewFBF(capacity int) *FBF {
	return &FBF{
		capacity:   capacity,
		priorities: map[cache.ChunkID]int{},
		index:      make(map[cache.ChunkID]*fbfEntry),
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
func (f *FBF) Len() int { return len(f.index) }

// Contains implements cache.Policy.
func (f *FBF) Contains(id cache.ChunkID) bool { _, ok := f.index[id]; return ok }

// Stats implements cache.Policy.
func (f *FBF) Stats() cache.Stats { return f.stats }

// SetPriorities implements cache.PriorityAware: it installs the priority
// dictionary of the recovery scheme about to be replayed. Priorities of
// already-resident chunks are left as their current queue positions (the
// paper demotes on use rather than re-promoting).
func (f *FBF) SetPriorities(priorities map[cache.ChunkID]int) {
	if priorities == nil {
		priorities = map[cache.ChunkID]int{}
	}
	f.priorities = priorities
}

// priorityOf returns the clamped FBF priority (1..3) for a chunk.
func (f *FBF) priorityOf(id cache.ChunkID) int {
	return clampPriority(f.priorities[id])
}

// Request implements cache.Policy, following Algorithm 1.
func (f *FBF) Request(id cache.ChunkID) bool {
	if e, ok := f.index[id]; ok {
		f.stats.Hits++
		switch e.queue {
		case 2, 1: // Queue3 → Queue2, Queue2 → Queue1: demote.
			f.queues[e.queue].Remove(e.node)
			e.queue--
			f.queues[e.queue].PushBackNode(e.node)
		default: // Queue1: refresh recency (PushToEnd).
			f.queues[0].MoveToBack(e.node)
		}
		return true
	}
	f.stats.Misses++
	if f.capacity == 0 {
		return false
	}
	if len(f.index) >= f.capacity {
		f.evict()
	}
	q := f.priorityOf(id) - 1
	var e *fbfEntry
	if k := len(f.free); k > 0 {
		e = f.free[k-1]
		f.free = f.free[:k-1]
	} else {
		e = &fbfEntry{node: &ds.Node[cache.ChunkID]{}}
	}
	e.queue = q
	e.node.Val = id
	f.queues[q].PushBackNode(e.node)
	f.index[id] = e
	return false
}

// evict releases one chunk: Queue1 first, then Queue2, then Queue3, LRU
// within each queue.
func (f *FBF) evict() {
	for q := 0; q < 3; q++ {
		if n := f.queues[q].Front(); n != nil {
			f.queues[q].Remove(n)
			e := f.index[n.Val]
			delete(f.index, n.Val)
			f.free = append(f.free, e)
			f.stats.Evictions++
			return
		}
	}
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
		out = append(out, n.Val)
	}
	return out
}
