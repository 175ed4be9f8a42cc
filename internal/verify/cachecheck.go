package verify

import (
	"fmt"
	"math/rand"

	"fbf/internal/cache"
	"fbf/internal/grid"
)

// CacheConfig parameterizes one policy model-check run.
type CacheConfig struct {
	Policy   string
	Capacity int
	Steps    int   // requests to replay (default 10000)
	Seed     int64 // stream RNG seed
}

// CacheReport summarizes one model-check run.
type CacheReport struct {
	Policy   string
	Capacity int
	Steps    int
	Stats    cache.Stats
}

// String renders the report compactly.
func (r *CacheReport) String() string {
	return fmt.Sprintf("%s(cap=%d): %d steps, %d hits / %d misses / %d evictions, zero divergence",
		r.Policy, r.Capacity, r.Steps, r.Stats.Hits, r.Stats.Misses, r.Stats.Evictions)
}

// CheckedPolicies lists the policies the checker has reference models
// for ("opt" is excluded: Belady needs the future sequence and has its
// own dedicated cross-check in internal/cache).
func CheckedPolicies() []string {
	return []string{"fbf", "fifo", "lru", "lfu", "arc"}
}

// refPolicy is a reference replacement-policy model: a deliberately
// naive, slice-based transcription of the policy's published rules.
// request processes one access and reports a hit; every model predicts
// its own victim, and the driver's residency comparison catches any
// disagreement with the production policy.
type refPolicy interface {
	request(id cache.ChunkID) (hit bool)
	resident() []cache.ChunkID
}

// refPriorityAware mirrors cache.PriorityAware for reference models.
type refPriorityAware interface {
	setPriorities(p map[cache.ChunkID]int)
}

// newRef constructs the reference model for a policy name.
func newRef(name string, capacity int) (refPolicy, error) {
	switch name {
	case "fbf":
		return &refFBF{cap: capacity, prio: map[cache.ChunkID]int{}}, nil
	case "fifo":
		return &refFIFO{cap: capacity}, nil
	case "lru":
		return &refLRU{cap: capacity}, nil
	case "lfu":
		return &refLFU{cap: capacity}, nil
	case "arc":
		return &refARC{cap: capacity}, nil
	default:
		return nil, fmt.Errorf("verify: no reference model for policy %q", name)
	}
}

// CheckCache drives the production policy and its reference model
// through the same randomized request stream and compares hit/miss
// decisions and the full resident set step by step, plus the aggregate
// event counters at the end (evictions counted from the residency
// diff). Any disagreement returns an error naming the first divergent
// step.
func CheckCache(cfg CacheConfig) (*CacheReport, error) {
	if cfg.Steps <= 0 {
		cfg.Steps = 10000
	}
	if cfg.Capacity < 0 {
		return nil, fmt.Errorf("verify: negative capacity %d", cfg.Capacity)
	}
	pol, err := cache.New(cfg.Policy, cfg.Capacity)
	if err != nil {
		return nil, err
	}
	ref, err := newRef(cfg.Policy, cfg.Capacity)
	if err != nil {
		return nil, err
	}
	return checkCache(pol, ref, cfg.Steps, cfg.Seed)
}

// checkCache is CheckCache's loop: steps requests of the stream seeded
// by seed through pol and ref. The stream draws from max(4×capacity,
// 16) chunk ids, and a fresh priority dictionary reaches both every 64
// steps.
func checkCache(pol cache.Policy, ref refPolicy, steps int, seed int64) (*CacheReport, error) {
	name, capacity := pol.Name(), pol.Capacity()
	universe := max(4*capacity, 16)
	const reprio = 64
	ids := make([]cache.ChunkID, universe)
	for k := range ids {
		ids[k] = cache.ChunkID{Stripe: k / 16, Cell: grid.Coord{Row: (k % 16) / 4, Col: k % 4}}
	}
	rng := rand.New(rand.NewSource(seed))
	hot := universe / 10
	if hot < 1 {
		hot = 1
	}
	scan := 0

	var evictions uint64
	var hits, misses uint64
	for step := 0; step < steps; step++ {
		if step%reprio == 0 {
			prio := make(map[cache.ChunkID]int)
			for _, id := range ids {
				if rng.Intn(2) == 0 {
					prio[id] = 1 + rng.Intn(4)
				}
			}
			if pa, ok := pol.(cache.PriorityAware); ok {
				pa.SetPriorities(prio)
			}
			if ra, ok := ref.(refPriorityAware); ok {
				ra.setPriorities(prio)
			}
		}

		// Mixed stream: mostly uniform with a hot set and a sequential
		// scan, exercising recency, frequency and ghost-queue behavior.
		var id cache.ChunkID
		switch draw := rng.Float64(); {
		case draw < 0.25:
			id = ids[rng.Intn(hot)]
		case draw < 0.40:
			id = ids[scan]
			scan = (scan + 1) % universe
		default:
			id = ids[rng.Intn(universe)]
		}

		before := ref.resident()
		hit := pol.Request(id)
		for _, r := range before {
			if r != id && !pol.Contains(r) {
				evictions++
			}
		}
		if hit {
			hits++
		} else {
			misses++
		}

		if refHit := ref.request(id); hit != refHit {
			return nil, fmt.Errorf("verify: %s cap=%d step %d id=%v: policy says hit=%v, model says hit=%v",
				name, capacity, step, id, hit, refHit)
		}
		res := ref.resident()
		if pol.Len() != len(res) {
			return nil, fmt.Errorf("verify: %s cap=%d step %d id=%v: policy holds %d chunks, model %d",
				name, capacity, step, id, pol.Len(), len(res))
		}
		for _, r := range res {
			if !pol.Contains(r) {
				return nil, fmt.Errorf("verify: %s cap=%d step %d id=%v: model-resident chunk %v missing from policy",
					name, capacity, step, id, r)
			}
		}
	}

	st := pol.Stats()
	if st.Hits != hits || st.Misses != misses {
		return nil, fmt.Errorf("verify: %s cap=%d: stats report %d/%d hits/misses, driver observed %d/%d",
			name, capacity, st.Hits, st.Misses, hits, misses)
	}
	if st.Evictions != evictions {
		return nil, fmt.Errorf("verify: %s cap=%d: stats report %d evictions, residency diffs observed %d",
			name, capacity, st.Evictions, evictions)
	}
	return &CacheReport{Policy: name, Capacity: capacity, Steps: steps, Stats: st}, nil
}

// ---- shared slice helpers ----

func sliceRemove(list []cache.ChunkID, id cache.ChunkID) []cache.ChunkID {
	for i, v := range list {
		if v == id {
			return append(list[:i:i], list[i+1:]...)
		}
	}
	return list
}

func sliceHas(list []cache.ChunkID, id cache.ChunkID) bool {
	for _, v := range list {
		if v == id {
			return true
		}
	}
	return false
}

// ---- FIFO ----

type refFIFO struct {
	cap   int
	queue []cache.ChunkID
}

func (r *refFIFO) resident() []cache.ChunkID { return r.queue }

func (r *refFIFO) request(id cache.ChunkID) bool {
	if sliceHas(r.queue, id) {
		return true
	}
	if r.cap == 0 {
		return false
	}
	if len(r.queue) >= r.cap {
		r.queue = r.queue[1:]
	}
	r.queue = append(r.queue, id)
	return false
}

// ---- LRU ----

type refLRU struct {
	cap   int
	queue []cache.ChunkID // index 0 = LRU end
}

func (r *refLRU) resident() []cache.ChunkID { return r.queue }

func (r *refLRU) request(id cache.ChunkID) bool {
	if sliceHas(r.queue, id) {
		r.queue = append(sliceRemove(r.queue, id), id)
		return true
	}
	if r.cap == 0 {
		return false
	}
	if len(r.queue) >= r.cap {
		r.queue = r.queue[1:]
	}
	r.queue = append(r.queue, id)
	return false
}

// ---- LFU ----

// refLFU: victim = lowest frequency, ties broken by the oldest bucket
// insertion (seq), matching frequency buckets that are LRU internally.
type refLFU struct {
	cap     int
	clock   uint64
	entries []*refLFUEntry
}

type refLFUEntry struct {
	id   cache.ChunkID
	freq uint64
	seq  uint64 // clock of the last frequency change (bucket insertion)
}

func (r *refLFU) resident() []cache.ChunkID {
	out := make([]cache.ChunkID, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.id
	}
	return out
}

func (r *refLFU) request(id cache.ChunkID) bool {
	r.clock++
	for _, e := range r.entries {
		if e.id == id {
			e.freq++
			e.seq = r.clock
			return true
		}
	}
	if r.cap == 0 {
		return false
	}
	if len(r.entries) >= r.cap {
		victim := 0
		for i, e := range r.entries {
			v := r.entries[victim]
			if e.freq < v.freq || (e.freq == v.freq && e.seq < v.seq) {
				victim = i
			}
		}
		r.entries = append(r.entries[:victim], r.entries[victim+1:]...)
	}
	r.entries = append(r.entries, &refLFUEntry{id: id, freq: 1, seq: r.clock})
	return false
}

// ---- FBF ----

// refFBF transcribes Algorithm 1: admit into the queue matching the
// chunk's priority, demote one queue per hit (refresh recency within
// Queue1), evict Queue1 -> Queue2 -> Queue3 in LRU order.
type refFBF struct {
	cap    int
	prio   map[cache.ChunkID]int
	queues [3][]cache.ChunkID // index 0 = Queue1; slice index 0 = LRU end
}

func (r *refFBF) setPriorities(p map[cache.ChunkID]int) {
	if p == nil {
		p = map[cache.ChunkID]int{}
	}
	r.prio = p
}

func (r *refFBF) resident() []cache.ChunkID {
	var out []cache.ChunkID
	for q := range r.queues {
		out = append(out, r.queues[q]...)
	}
	return out
}

func (r *refFBF) request(id cache.ChunkID) bool {
	for q := 2; q >= 0; q-- {
		if sliceHas(r.queues[q], id) {
			r.queues[q] = sliceRemove(r.queues[q], id)
			dst := q - 1
			if dst < 0 {
				dst = 0
			}
			r.queues[dst] = append(r.queues[dst], id)
			return true
		}
	}
	if r.cap == 0 {
		return false
	}
	if len(r.queues[0])+len(r.queues[1])+len(r.queues[2]) >= r.cap {
		for q := 0; q < 3; q++ {
			if len(r.queues[q]) > 0 {
				r.queues[q] = r.queues[q][1:]
				break
			}
		}
	}
	p := r.prio[id]
	if p < 1 {
		p = 1
	}
	if p > 3 {
		p = 3
	}
	r.queues[p-1] = append(r.queues[p-1], id)
	return false
}

// ---- ARC ----

// refARC transcribes the ARC paper's Figure 4 pseudocode with the same
// REPLACE emptiness fallback as the production cache (see
// internal/cache/arc.go).
type refARC struct {
	cap, p         int
	t1, t2, b1, b2 []cache.ChunkID
}

func (r *refARC) resident() []cache.ChunkID {
	return append(append([]cache.ChunkID{}, r.t1...), r.t2...)
}

func (r *refARC) replace(inB2 bool) {
	fromT1 := len(r.t1) >= 1 && ((inB2 && len(r.t1) == r.p) || len(r.t1) > r.p)
	if !fromT1 && len(r.t2) == 0 {
		if len(r.t1) == 0 {
			return
		}
		fromT1 = true
	}
	if fromT1 {
		id := r.t1[0]
		r.t1 = r.t1[1:]
		r.b1 = append(r.b1, id)
	} else {
		id := r.t2[0]
		r.t2 = r.t2[1:]
		r.b2 = append(r.b2, id)
	}
}

func (r *refARC) request(id cache.ChunkID) bool {
	c := r.cap
	if c == 0 {
		return false
	}
	switch {
	case sliceHas(r.t1, id) || sliceHas(r.t2, id): // Case I
		r.t1 = sliceRemove(r.t1, id)
		r.t2 = append(sliceRemove(r.t2, id), id)
		return true
	case sliceHas(r.b1, id): // Case II
		delta := 1
		if len(r.b2) > len(r.b1) {
			delta = len(r.b2) / len(r.b1)
		}
		r.p = min(c, r.p+delta)
		r.replace(false)
		r.b1 = sliceRemove(r.b1, id)
		r.t2 = append(r.t2, id)
		return false
	case sliceHas(r.b2, id): // Case III
		delta := 1
		if len(r.b1) > len(r.b2) {
			delta = len(r.b1) / len(r.b2)
		}
		r.p = max(0, r.p-delta)
		r.replace(true)
		r.b2 = sliceRemove(r.b2, id)
		r.t2 = append(r.t2, id)
		return false
	}
	// Case IV: completely new page.
	l1 := len(r.t1) + len(r.b1)
	if l1 == c {
		if len(r.t1) < c {
			r.b1 = r.b1[1:]
			r.replace(false)
		} else {
			r.t1 = r.t1[1:]
		}
	} else if l1 < c {
		total := l1 + len(r.t2) + len(r.b2)
		if total >= c {
			if total == 2*c {
				r.b2 = r.b2[1:]
			}
			r.replace(false)
		}
	}
	r.t1 = append(r.t1, id)
	return false
}
