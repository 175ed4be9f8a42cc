package core

import "fbf/internal/cache"

// fbfIndex maps a resident chunk to its entry in FBF's slab. It is an
// open-addressing table of entry indexes, 0 for an empty slot: linear
// probing over a power-of-two number of slots, doubled when it would
// pass a quarter load, and backward-shift deletion, so no slot ever holds
// a tombstone. Each occupied slot a probe passes costs a read of its
// entry, and most of the simulator's requests miss, so the table is kept
// sparse. Every method reads ids from the slab it is given. The zero
// value is an empty index.
type fbfIndex struct {
	slots []int32
	n     int // resident entries
}

// home returns id's first probe slot: a multiplicative hash of
// (stripe, row, col), top bits taken as the slot.
func (x *fbfIndex) home(id cache.ChunkID) int {
	h := uint64(id.Stripe)*0x9e3779b97f4a7c15 ^ uint64(id.Cell.Row)*0xc2b2ae3d27d4eb4f ^ uint64(id.Cell.Col)*0x165667b19e3779f9
	h ^= h >> 32
	h *= 0x9e3779b97f4a7c15
	return int(h>>32) & (len(x.slots) - 1)
}

// get returns id's entry index, or 0 when id is not resident.
func (x *fbfIndex) get(entries []fbfEntry, id cache.ChunkID) int32 {
	if x.n == 0 {
		return 0
	}
	mask := len(x.slots) - 1
	for k := x.home(id); ; k = (k + 1) & mask {
		if i := x.slots[k]; i == 0 || entries[i].id == id {
			return i
		}
	}
}

// put adds entry i, whose id must not be resident.
func (x *fbfIndex) put(entries []fbfEntry, i int32) {
	if 4*(x.n+1) > len(x.slots) {
		old := x.slots
		x.slots = make([]int32, max(8, 2*len(old)))
		for _, j := range old {
			if j != 0 {
				x.insert(entries, j)
			}
		}
	}
	x.insert(entries, i)
	x.n++
}

// insert places entry i in the first free slot of its probe sequence.
func (x *fbfIndex) insert(entries []fbfEntry, i int32) {
	mask := len(x.slots) - 1
	k := x.home(entries[i].id)
	for x.slots[k] != 0 {
		k = (k + 1) & mask
	}
	x.slots[k] = i
}

// remove deletes the resident entry i. Each later entry of the probe
// run that may live in the freed slot (its home is not cyclically after
// the slot) moves back into it, and the slot it left is freed in turn,
// so every entry stays reachable from its home without tombstones.
func (x *fbfIndex) remove(entries []fbfEntry, i int32) {
	mask := len(x.slots) - 1
	k := x.home(entries[i].id)
	for x.slots[k] != i {
		k = (k + 1) & mask
	}
	for j := (k + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		if (j-x.home(entries[x.slots[j]].id))&mask >= (j-k)&mask {
			x.slots[k] = x.slots[j]
			k = j
		}
	}
	x.slots[k] = 0
	x.n--
}
