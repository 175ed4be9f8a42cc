package cache

import "fbf/internal/ds"

// LRU evicts the least-recently-used chunk.
type LRU struct {
	capacity int
	stats    Stats
	queue    ds.List[ChunkID] // front = LRU, back = MRU
	index    map[ChunkID]*ds.Node[ChunkID]

	// free recycles evicted nodes so a full cache churns
	// through misses without allocating.
	free []*ds.Node[ChunkID]
}

// NewLRU returns an LRU cache holding up to capacity chunks.
func NewLRU(capacity int) *LRU {
	return &LRU{capacity: capacity, index: make(map[ChunkID]*ds.Node[ChunkID])}
}

// Name implements Policy.
func (l *LRU) Name() string { return "lru" }

// Capacity implements Policy.
func (l *LRU) Capacity() int { return l.capacity }

// Len implements Policy.
func (l *LRU) Len() int { return l.queue.Len() }

// Contains implements Policy.
func (l *LRU) Contains(id ChunkID) bool { _, ok := l.index[id]; return ok }

// Stats implements Policy.
func (l *LRU) Stats() Stats { return l.stats }

// Request implements Policy.
func (l *LRU) Request(id ChunkID) bool {
	if n, ok := l.index[id]; ok {
		l.queue.MoveToBack(n)
		l.stats.Hits++
		return true
	}
	l.stats.Misses++
	if l.capacity == 0 {
		return false
	}
	if l.queue.Len() >= l.capacity {
		victim := l.queue.Front()
		l.queue.Remove(victim)
		delete(l.index, victim.Val)
		l.free = append(l.free, victim)
		l.stats.Evictions++
	}
	var n *ds.Node[ChunkID]
	if k := len(l.free); k > 0 {
		n = l.free[k-1]
		l.free = l.free[:k-1]
	} else {
		n = &ds.Node[ChunkID]{}
	}
	n.Val = id
	l.queue.PushBackNode(n)
	l.index[id] = n
	return false
}

// Reset implements Policy.
func (l *LRU) Reset() {
	*l = *NewLRU(l.capacity)
}
