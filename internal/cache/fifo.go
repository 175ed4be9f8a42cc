package cache

import "fbf/internal/ds"

// FIFO evicts the chunk that has been resident longest, regardless of
// use. It is the simplest baseline in the paper's comparison.
type FIFO struct {
	capacity int
	stats    Stats
	queue    ds.List[ChunkID]
	index    map[ChunkID]*ds.Node[ChunkID]
}

// NewFIFO returns a FIFO cache holding up to capacity chunks.
func NewFIFO(capacity int) *FIFO {
	return &FIFO{capacity: capacity, index: make(map[ChunkID]*ds.Node[ChunkID])}
}

// Name implements Policy.
func (f *FIFO) Name() string { return "fifo" }

// Capacity implements Policy.
func (f *FIFO) Capacity() int { return f.capacity }

// Len implements Policy.
func (f *FIFO) Len() int { return f.queue.Len() }

// Contains implements Policy.
func (f *FIFO) Contains(id ChunkID) bool { _, ok := f.index[id]; return ok }

// Stats implements Policy.
func (f *FIFO) Stats() Stats { return f.stats }

// Request implements Policy. Hits do not reorder the queue.
func (f *FIFO) Request(id ChunkID) bool {
	if _, ok := f.index[id]; ok {
		f.stats.Hits++
		return true
	}
	f.stats.Misses++
	if f.capacity == 0 {
		return false
	}
	if f.queue.Len() >= f.capacity {
		victim := f.queue.PopFront()
		delete(f.index, victim)
		f.stats.Evictions++
	}
	f.index[id] = f.queue.PushBack(id)
	return false
}

// Reset implements Policy.
func (f *FIFO) Reset() {
	*f = *NewFIFO(f.capacity)
}
