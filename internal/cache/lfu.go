package cache

import "fbf/internal/ds"

// LFU evicts the chunk with the lowest in-cache reference count, with
// ties broken by recency (least recently used first). The
// frequency-bucket structure gives O(1) operations.
type LFU struct {
	capacity int
	stats    Stats
	index    map[ChunkID]*lfuEntry
	buckets  map[uint64]*ds.List[*lfuEntry] // frequency -> entries (front = LRU)
	minFreq  uint64
}

type lfuEntry struct {
	id   ChunkID
	freq uint64
	node *ds.Node[*lfuEntry]
}

// NewLFU returns an LFU cache holding up to capacity chunks.
func NewLFU(capacity int) *LFU {
	return &LFU{
		capacity: capacity,
		index:    make(map[ChunkID]*lfuEntry),
		buckets:  make(map[uint64]*ds.List[*lfuEntry]),
	}
}

// Name implements Policy.
func (l *LFU) Name() string { return "lfu" }

// Capacity implements Policy.
func (l *LFU) Capacity() int { return l.capacity }

// Len implements Policy.
func (l *LFU) Len() int { return len(l.index) }

// Contains implements Policy.
func (l *LFU) Contains(id ChunkID) bool { _, ok := l.index[id]; return ok }

// Stats implements Policy.
func (l *LFU) Stats() Stats { return l.stats }

func (l *LFU) bucket(freq uint64) *ds.List[*lfuEntry] {
	b, ok := l.buckets[freq]
	if !ok {
		b = &ds.List[*lfuEntry]{}
		l.buckets[freq] = b
	}
	return b
}

func (l *LFU) detach(e *lfuEntry) {
	b := l.buckets[e.freq]
	b.Remove(e.node)
	if b.Len() == 0 {
		delete(l.buckets, e.freq)
		if l.minFreq == e.freq {
			// minFreq is fixed up lazily on the next insert/promotion;
			// promotions only ever move it up by one.
			l.minFreq = e.freq + 1
		}
	}
}

// Request implements Policy.
func (l *LFU) Request(id ChunkID) bool {
	if e, ok := l.index[id]; ok {
		l.detach(e)
		e.freq++
		e.node = l.bucket(e.freq).PushBack(e)
		l.stats.Hits++
		return true
	}
	l.stats.Misses++
	if l.capacity == 0 {
		return false
	}
	if len(l.index) >= l.capacity {
		b := l.buckets[l.minFreq]
		victim := b.PopFront()
		if b.Len() == 0 {
			delete(l.buckets, l.minFreq)
		}
		delete(l.index, victim.id)
		l.stats.Evictions++
	}
	e := &lfuEntry{id: id, freq: 1}
	e.node = l.bucket(1).PushBack(e)
	l.index[id] = e
	l.minFreq = 1
	return false
}

// Reset implements Policy.
func (l *LFU) Reset() {
	*l = *NewLFU(l.capacity)
}
