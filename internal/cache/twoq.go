package cache

import "fbf/internal/ds"

// TwoQ implements the full 2Q policy (Johnson & Shasha, VLDB'94): new
// chunks enter a FIFO probation queue (A1in); on eviction from A1in
// their identity is remembered in a ghost queue (A1out); a re-reference
// while in the ghost queue promotes the chunk into the main LRU queue
// (Am). The classic tuning Kin = capacity/4, Kout = capacity/2 is used.
type TwoQ struct {
	capacity int
	kin      int
	kout     int
	stats    Stats

	a1in  ds.List[ChunkID] // FIFO, front = oldest
	a1out ds.List[ChunkID] // ghost FIFO
	am    ds.List[ChunkID] // LRU, front = LRU end
	index map[ChunkID]*twoQEntry
}

type twoQList uint8

const (
	twoQA1in twoQList = iota
	twoQA1out
	twoQAm
)

type twoQEntry struct {
	where twoQList
	node  *ds.Node[ChunkID]
}

// NewTwoQ returns a 2Q cache holding up to capacity chunks.
func NewTwoQ(capacity int) *TwoQ {
	kin := capacity / 4
	if kin < 1 && capacity > 0 {
		kin = 1
	}
	kout := capacity / 2
	if kout < 1 && capacity > 0 {
		kout = 1
	}
	return &TwoQ{capacity: capacity, kin: kin, kout: kout, index: make(map[ChunkID]*twoQEntry)}
}

// Name implements Policy.
func (q *TwoQ) Name() string { return "2q" }

// Capacity implements Policy.
func (q *TwoQ) Capacity() int { return q.capacity }

// Len implements Policy. Ghost entries hold no data.
func (q *TwoQ) Len() int { return q.a1in.Len() + q.am.Len() }

// Contains implements Policy.
func (q *TwoQ) Contains(id ChunkID) bool {
	e, ok := q.index[id]
	return ok && e.where != twoQA1out
}

// Stats implements Policy.
func (q *TwoQ) Stats() Stats { return q.stats }

// reclaim frees one resident slot following the 2Q "reclaimfor" rule.
func (q *TwoQ) reclaim() {
	if q.a1in.Len() > q.kin || q.am.Len() == 0 {
		// Demote the oldest probation page to the ghost queue.
		id := q.a1in.PopFront()
		e := q.index[id]
		e.where = twoQA1out
		e.node = q.a1out.PushBack(id)
		if q.a1out.Len() > q.kout {
			old := q.a1out.PopFront()
			delete(q.index, old)
		}
	} else {
		delete(q.index, q.am.PopFront())
	}
	q.stats.Evictions++
}

// Request implements Policy.
func (q *TwoQ) Request(id ChunkID) bool {
	if e, ok := q.index[id]; ok {
		switch e.where {
		case twoQAm:
			q.am.MoveToBack(e.node)
			q.stats.Hits++
			return true
		case twoQA1in:
			// 2Q leaves probation pages in place on re-reference.
			q.stats.Hits++
			return true
		default: // ghost hit: promote to Am.
			q.stats.Misses++
			if q.capacity == 0 {
				return false
			}
			// Unlink from the ghost queue before reclaiming: reclaim may
			// trim A1out and must not free this very entry.
			q.a1out.Remove(e.node)
			if q.Len() >= q.capacity {
				q.reclaim()
			}
			e.where = twoQAm
			e.node = q.am.PushBack(id)
			return false
		}
	}
	q.stats.Misses++
	if q.capacity == 0 {
		return false
	}
	if q.Len() >= q.capacity {
		q.reclaim()
	}
	e := &twoQEntry{where: twoQA1in}
	e.node = q.a1in.PushBack(id)
	q.index[id] = e
	return false
}

// Reset implements Policy.
func (q *TwoQ) Reset() {
	*q = *NewTwoQ(q.capacity)
}
