package cache

import "fbf/internal/ds"

// ARC is the Adaptive Replacement Cache of Megiddo & Modha (FAST'03): a
// self-tuning balance between recency (T1) and frequency (T2) with ghost
// lists (B1, B2) steering the adaptation target p.
type ARC struct {
	capacity int
	stats    Stats
	p        int // target size of T1

	t1, t2, b1, b2 ds.List[ChunkID] // fronts are the LRU ends
	index          map[ChunkID]*arcEntry
}

type arcList uint8

const (
	arcT1 arcList = iota
	arcT2
	arcB1
	arcB2
)

type arcEntry struct {
	where arcList
	node  *ds.Node[ChunkID]
}

// NewARC returns an ARC cache holding up to capacity chunks.
func NewARC(capacity int) *ARC {
	return &ARC{capacity: capacity, index: make(map[ChunkID]*arcEntry)}
}

// Name implements Policy.
func (a *ARC) Name() string { return "arc" }

// Capacity implements Policy.
func (a *ARC) Capacity() int { return a.capacity }

// Len implements Policy.
func (a *ARC) Len() int { return a.t1.Len() + a.t2.Len() }

// Contains implements Policy. Ghost entries are not resident.
func (a *ARC) Contains(id ChunkID) bool {
	e, ok := a.index[id]
	return ok && (e.where == arcT1 || e.where == arcT2)
}

// Stats implements Policy.
func (a *ARC) Stats() Stats { return a.stats }

// TargetP exposes the adaptation target for tests and ablation output.
func (a *ARC) TargetP() int { return a.p }

func (a *ARC) listOf(w arcList) *ds.List[ChunkID] {
	switch w {
	case arcT1:
		return &a.t1
	case arcT2:
		return &a.t2
	case arcB1:
		return &a.b1
	default:
		return &a.b2
	}
}

// moveTo relocates an indexed entry to the MRU end of the given list.
func (a *ARC) moveTo(id ChunkID, w arcList) {
	e := a.index[id]
	a.listOf(e.where).Remove(e.node)
	e.where = w
	e.node = a.listOf(w).PushBack(id)
}

// dropLRU removes the LRU entry of the given list from the cache
// entirely.
func (a *ARC) dropLRU(w arcList) {
	id := a.listOf(w).PopFront()
	delete(a.index, id)
	if w == arcT1 || w == arcT2 {
		a.stats.Evictions++
	}
}

// replace is the REPLACE subroutine of the ARC paper: demote the LRU of
// T1 or T2 into its ghost list to make room for one resident page.
//
// The paper's pseudocode pops T2 whenever the T1 condition is false,
// but after ghost-hit adaptation T2 can be empty while T1 is not (e.g.
// a B1 ghost hit raises p to |T1| with every resident page in T1);
// popping the empty list would corrupt the index, so the branch
// selection falls back to the non-empty side.
func (a *ARC) replace(inB2 bool) {
	fromT1 := a.t1.Len() >= 1 && ((inB2 && a.t1.Len() == a.p) || a.t1.Len() > a.p)
	if !fromT1 && a.t2.Len() == 0 {
		if a.t1.Len() == 0 {
			return // no resident pages at all; nothing to demote
		}
		fromT1 = true
	}
	if fromT1 {
		a.moveTo(a.t1.Front().Val, arcB1)
	} else {
		a.moveTo(a.t2.Front().Val, arcB2)
	}
	a.stats.Evictions++
}

// Request implements Policy, following Figure 4 of the ARC paper.
func (a *ARC) Request(id ChunkID) bool {
	c := a.capacity
	if c == 0 {
		a.stats.Misses++
		return false
	}
	if e, ok := a.index[id]; ok {
		switch e.where {
		case arcT1, arcT2: // Case I: hit.
			a.moveTo(id, arcT2)
			a.stats.Hits++
			return true
		case arcB1: // Case II: ghost hit in B1 → favor recency.
			delta := 1
			if a.b1.Len() > 0 && a.b2.Len() > a.b1.Len() {
				delta = a.b2.Len() / a.b1.Len()
			}
			a.p = min(c, a.p+delta)
			a.replace(false)
			a.moveTo(id, arcT2)
			a.stats.Misses++
			return false
		default: // Case III: ghost hit in B2 → favor frequency.
			delta := 1
			if a.b2.Len() > 0 && a.b1.Len() > a.b2.Len() {
				delta = a.b1.Len() / a.b2.Len()
			}
			a.p = max(0, a.p-delta)
			a.replace(true)
			a.moveTo(id, arcT2)
			a.stats.Misses++
			return false
		}
	}
	// Case IV: completely new page.
	a.stats.Misses++
	l1 := a.t1.Len() + a.b1.Len()
	if l1 == c {
		if a.t1.Len() < c {
			a.dropLRU(arcB1)
			a.replace(false)
		} else {
			// B1 is empty and T1 is full: evict the LRU of T1 outright.
			a.dropLRU(arcT1)
		}
	} else if l1 < c {
		total := l1 + a.t2.Len() + a.b2.Len()
		if total >= c {
			if total == 2*c {
				a.dropLRU(arcB2)
			}
			a.replace(false)
		}
	}
	e := &arcEntry{where: arcT1}
	e.node = a.t1.PushBack(id)
	a.index[id] = e
	return false
}

// Reset implements Policy.
func (a *ARC) Reset() {
	*a = *NewARC(a.capacity)
}
