package cache

import "container/heap"

// Belady is the clairvoyant optimal policy (Belady's MIN/OPT): given the
// full future request sequence via SetFuture, it evicts the resident
// chunk whose next use is farthest in the future. It provides the
// hit-ratio upper bound used by the ablation benches; it is not a
// realizable policy.
type Belady struct {
	capacity int
	stats    Stats
	pos      int               // index of the next request to be served
	future   map[ChunkID][]int // remaining request positions per chunk
	index    map[ChunkID]*optEntry
	h        optHeap
}

type optEntry struct {
	id      ChunkID
	next    int // position of the chunk's next use; maxInt if never
	heapIdx int
}

const optNever = int(^uint(0) >> 1)

type optHeap []*optEntry

func (h optHeap) Len() int           { return len(h) }
func (h optHeap) Less(i, j int) bool { return h[i].next > h[j].next } // max-heap on next use
func (h optHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx, h[j].heapIdx = i, j
}
func (h *optHeap) Push(x any) {
	e := x.(*optEntry)
	e.heapIdx = len(*h)
	*h = append(*h, e)
}
func (h *optHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// NewBelady returns an OPT cache holding up to capacity chunks. Callers
// must provide the request sequence with SetFuture before issuing
// requests; requests beyond the provided future are treated as having
// unknown (infinite) reuse distance.
func NewBelady(capacity int) *Belady {
	return &Belady{
		capacity: capacity,
		future:   make(map[ChunkID][]int),
		index:    make(map[ChunkID]*optEntry),
	}
}

// Name implements Policy.
func (b *Belady) Name() string { return "opt" }

// Capacity implements Policy.
func (b *Belady) Capacity() int { return b.capacity }

// Len implements Policy.
func (b *Belady) Len() int { return len(b.index) }

// Contains implements Policy.
func (b *Belady) Contains(id ChunkID) bool { _, ok := b.index[id]; return ok }

// Stats implements Policy.
func (b *Belady) Stats() Stats { return b.stats }

// SetFuture implements FutureAware: it installs the upcoming request
// sequence, resetting the request cursor but keeping resident chunks.
func (b *Belady) SetFuture(requests []ChunkID) {
	b.future = make(map[ChunkID][]int, len(requests))
	for i, id := range requests {
		b.future[id] = append(b.future[id], i)
	}
	b.pos = 0
	// Recompute next-use for resident chunks under the new future.
	for id, e := range b.index {
		e.next = b.nextUse(id)
	}
	heap.Init(&b.h)
}

// nextUse returns the position of id's next request at or after b.pos.
func (b *Belady) nextUse(id ChunkID) int {
	positions := b.future[id]
	for len(positions) > 0 && positions[0] < b.pos {
		positions = positions[1:]
	}
	b.future[id] = positions
	if len(positions) == 0 {
		return optNever
	}
	return positions[0]
}

// Request implements Policy.
func (b *Belady) Request(id ChunkID) bool {
	b.pos++
	if e, ok := b.index[id]; ok {
		e.next = b.nextUse(id)
		heap.Fix(&b.h, e.heapIdx)
		b.stats.Hits++
		return true
	}
	b.stats.Misses++
	if b.capacity == 0 {
		return false
	}
	next := b.nextUse(id)
	if len(b.index) >= b.capacity {
		// MIN evicts the farthest next use among residents and the
		// incoming chunk; if the incoming chunk is the farthest, bypass
		// the cache entirely.
		if b.h[0].next <= next {
			return false
		}
		victim := heap.Pop(&b.h).(*optEntry)
		delete(b.index, victim.id)
		b.stats.Evictions++
	}
	e := &optEntry{id: id, next: next}
	heap.Push(&b.h, e)
	b.index[id] = e
	return false
}

// Reset implements Policy.
func (b *Belady) Reset() {
	*b = *NewBelady(b.capacity)
}
