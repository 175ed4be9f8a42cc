package cache

import (
	"container/heap"
	"math"
)

// LRFU implements the Least Recently/Frequently Used policy (Lee et
// al., IEEE ToC 2001; reference [30] of the FBF paper): every block
// carries a Combined Recency and Frequency (CRF) value, the sum of
// F(age) = (1/2)^(lambda * age) over its past references. lambda = 0
// degenerates to LFU (pure frequency), lambda = 1 to LRU (pure
// recency); the classic sweet spot lies in between.
//
// The implementation uses the standard O(log n) trick: CRFs are stored
// scaled to the current clock, so a block's relative order only changes
// when it is referenced, and a min-heap on the scaled CRF yields the
// victim.
type LRFU struct {
	capacity int
	lambda   float64
	stats    Stats
	clock    uint64
	index    map[ChunkID]*lrfuEntry
	h        lrfuHeap
}

type lrfuEntry struct {
	id      ChunkID
	crf     float64 // CRF valued at the entry's last reference time
	last    uint64  // clock of the last reference
	heapIdx int
}

// weight is F(age) = 0.5^(lambda * age).
func (l *LRFU) weight(age uint64) float64 {
	return math.Pow(0.5, l.lambda*float64(age))
}

// crfAt re-values an entry's CRF at the given clock.
func (l *LRFU) crfAt(e *lrfuEntry, now uint64) float64 {
	return e.crf * l.weight(now-e.last)
}

type lrfuHeap struct {
	l       *LRFU
	entries []*lrfuEntry
}

func (h lrfuHeap) Len() int { return len(h.entries) }
func (h lrfuHeap) Less(i, j int) bool {
	// Comparing CRFs valued at any common time preserves order because
	// both scale by the same factor; use each entry's stored value
	// re-based to the max of the two last-reference times.
	a, b := h.entries[i], h.entries[j]
	base := a.last
	if b.last > base {
		base = b.last
	}
	return h.l.crfAt(a, base) < h.l.crfAt(b, base)
}
func (h lrfuHeap) Swap(i, j int) {
	h.entries[i], h.entries[j] = h.entries[j], h.entries[i]
	h.entries[i].heapIdx, h.entries[j].heapIdx = i, j
}
func (h *lrfuHeap) Push(x any) {
	e := x.(*lrfuEntry)
	e.heapIdx = len(h.entries)
	h.entries = append(h.entries, e)
}
func (h *lrfuHeap) Pop() any {
	old := h.entries
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	h.entries = old[:n-1]
	return e
}

// NewLRFU returns an LRFU cache with the given capacity and decay
// parameter lambda in [0, 1].
func NewLRFU(capacity int, lambda float64) *LRFU {
	if lambda < 0 {
		lambda = 0
	}
	if lambda > 1 {
		lambda = 1
	}
	l := &LRFU{capacity: capacity, lambda: lambda, index: make(map[ChunkID]*lrfuEntry)}
	l.h.l = l
	return l
}

// Name implements Policy.
func (l *LRFU) Name() string { return "lrfu" }

// Capacity implements Policy.
func (l *LRFU) Capacity() int { return l.capacity }

// Len implements Policy.
func (l *LRFU) Len() int { return len(l.index) }

// Contains implements Policy.
func (l *LRFU) Contains(id ChunkID) bool { _, ok := l.index[id]; return ok }

// Stats implements Policy.
func (l *LRFU) Stats() Stats { return l.stats }

// Lambda returns the decay parameter.
func (l *LRFU) Lambda() float64 { return l.lambda }

// Request implements Policy.
func (l *LRFU) Request(id ChunkID) bool {
	l.clock++
	if e, ok := l.index[id]; ok {
		e.crf = 1 + l.crfAt(e, l.clock)
		e.last = l.clock
		heap.Fix(&l.h, e.heapIdx)
		l.stats.Hits++
		return true
	}
	l.stats.Misses++
	if l.capacity == 0 {
		return false
	}
	if len(l.index) >= l.capacity {
		victim := heap.Pop(&l.h).(*lrfuEntry)
		delete(l.index, victim.id)
		l.stats.Evictions++
	}
	e := &lrfuEntry{id: id, crf: 1, last: l.clock}
	heap.Push(&l.h, e)
	l.index[id] = e
	return false
}

// Reset implements Policy.
func (l *LRFU) Reset() {
	*l = *NewLRFU(l.capacity, l.lambda)
}
