package cache

import "container/heap"

// LRU2 implements the LRU-K policy with K=2 (O'Neil et al., SIGMOD'93):
// the victim is the resident chunk whose second-most-recent access is
// oldest. Chunks seen only once have no penultimate access and are
// evicted before any chunk seen twice, oldest first.
type LRU2 struct {
	capacity int
	stats    Stats
	clock    uint64
	index    map[ChunkID]*lru2Entry
	h        lru2Heap
}

type lru2Entry struct {
	id       ChunkID
	last     uint64 // most recent access time
	prev     uint64 // second-most-recent access time; 0 = none
	heapIdx  int
	accesses uint64
}

// key orders eviction candidates: entries without history first (prev
// 0), then by oldest prev; ties by oldest last access.
func (e *lru2Entry) before(o *lru2Entry) bool {
	if e.prev != o.prev {
		return e.prev < o.prev
	}
	return e.last < o.last
}

type lru2Heap []*lru2Entry

func (h lru2Heap) Len() int           { return len(h) }
func (h lru2Heap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h lru2Heap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx, h[j].heapIdx = i, j
}
func (h *lru2Heap) Push(x any) {
	e := x.(*lru2Entry)
	e.heapIdx = len(*h)
	*h = append(*h, e)
}
func (h *lru2Heap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// NewLRU2 returns an LRU-2 cache holding up to capacity chunks.
func NewLRU2(capacity int) *LRU2 {
	return &LRU2{capacity: capacity, index: make(map[ChunkID]*lru2Entry)}
}

// Name implements Policy.
func (l *LRU2) Name() string { return "lru2" }

// Capacity implements Policy.
func (l *LRU2) Capacity() int { return l.capacity }

// Len implements Policy.
func (l *LRU2) Len() int { return len(l.index) }

// Contains implements Policy.
func (l *LRU2) Contains(id ChunkID) bool { _, ok := l.index[id]; return ok }

// Stats implements Policy.
func (l *LRU2) Stats() Stats { return l.stats }

// Request implements Policy.
func (l *LRU2) Request(id ChunkID) bool {
	l.clock++
	if e, ok := l.index[id]; ok {
		e.prev = e.last
		e.last = l.clock
		e.accesses++
		heap.Fix(&l.h, e.heapIdx)
		l.stats.Hits++
		return true
	}
	l.stats.Misses++
	if l.capacity == 0 {
		return false
	}
	if len(l.index) >= l.capacity {
		victim := heap.Pop(&l.h).(*lru2Entry)
		delete(l.index, victim.id)
		l.stats.Evictions++
	}
	e := &lru2Entry{id: id, last: l.clock, accesses: 1}
	heap.Push(&l.h, e)
	l.index[id] = e
	return false
}

// Reset implements Policy.
func (l *LRU2) Reset() {
	*l = *NewLRU2(l.capacity)
}
