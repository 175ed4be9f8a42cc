// Package cache provides the buffer-cache abstraction used by the
// reconstruction engines, together with the classic replacement policies
// the paper compares against (FIFO, LRU, LFU, ARC) and a clairvoyant
// Belady policy (OPT) for the upper-bound ablation. The paper's own FBF
// policy lives in internal/core and implements the same Policy
// interface.
//
// Capacity is measured in chunks: the simulated caches hold fixed-size
// chunks (32 KB in the paper), so a byte budget divides evenly.
package cache

import (
	"fmt"
	"sort"

	"fbf/internal/grid"
)

// ChunkID identifies one chunk on the array: the stripe it belongs to
// and its cell coordinate within the stripe.
type ChunkID struct {
	Stripe int
	Cell   grid.Coord
}

// String renders the id as "S<stripe>:C(r,c)".
func (id ChunkID) String() string { return fmt.Sprintf("S%d:%s", id.Stripe, id.Cell) }

// Stats counts cache events since the last Reset.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Requests returns the total number of requests observed.
func (s Stats) Requests() uint64 { return s.Hits + s.Misses }

// HitRatio returns hits / requests, or 0 with no requests.
func (s Stats) HitRatio() float64 {
	if r := s.Requests(); r > 0 {
		return float64(s.Hits) / float64(r)
	}
	return 0
}

// Policy is a chunk-cache replacement policy. Implementations are not
// safe for concurrent use; the engines give each worker its own policy
// instance (the paper's SOR parallel reconstruction partitions the cache
// the same way).
type Policy interface {
	// Name returns the policy's registry name.
	Name() string
	// Capacity returns the maximum number of resident chunks.
	Capacity() int
	// Len returns the current number of resident chunks.
	Len() int
	// Request records an access to id, returning true on a hit. On a
	// miss the policy admits id, evicting as needed; the caller is
	// responsible for modeling the disk fetch that the miss implies.
	Request(id ChunkID) bool
	// Contains reports residency without side effects.
	Contains(id ChunkID) bool
	// Stats returns the event counters accumulated since Reset.
	Stats() Stats
	// Reset drops all cached state and counters.
	Reset()
}

// PriorityAware is implemented by policies (FBF) that consult the
// priority dictionary of recovery-scheme generation, installed before a
// task's requests replay (DOR's merged dictionary, the cache checker; SOR
// uses core.FBF.SetScheme instead). Other policies ignore priorities.
type PriorityAware interface {
	SetPriorities(priorities map[ChunkID]int)
}

// FutureAware is implemented by clairvoyant policies (Belady/OPT) that
// need the full upcoming request sequence.
type FutureAware interface {
	SetFuture(requests []ChunkID)
}

// Factory constructs a policy with the given capacity in chunks.
type Factory func(capacity int) Policy

var registry = map[string]Factory{}

// Register adds a policy factory under a unique name. It is intended to
// be called from init functions and panics on duplicates.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("cache: duplicate policy %q", name))
	}
	registry[name] = f
}

// Names returns the registered policy names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// New constructs a registered policy by name.
func New(name string, capacity int) (Policy, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("cache: unknown policy %q (have %v)", name, Names())
	}
	if capacity < 0 {
		return nil, fmt.Errorf("cache: negative capacity %d", capacity)
	}
	return f(capacity), nil
}

// MustNew is New that panics on error.
func MustNew(name string, capacity int) Policy {
	p, err := New(name, capacity)
	if err != nil {
		panic(err)
	}
	return p
}

func init() {
	Register("fifo", func(c int) Policy { return NewFIFO(c) })
	Register("lru", func(c int) Policy { return NewLRU(c) })
	Register("lfu", func(c int) Policy { return NewLFU(c) })
	Register("arc", func(c int) Policy { return NewARC(c) })
	Register("opt", func(c int) Policy { return NewBelady(c) })
}
