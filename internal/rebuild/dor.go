package rebuild

import (
	"fmt"
	"time"

	"fbf/internal/cache"
	"fbf/internal/core"
	"fbf/internal/disk"
	"fbf/internal/grid"
	"fbf/internal/sim"
)

// Mode selects the engine's parallelization strategy (Section III-B of
// the paper).
type Mode uint8

const (
	// ModeSOR is stripe-oriented reconstruction: N workers each repair
	// one error group at a time with a private cache partition. This is
	// the mode the paper extends FBF with and the default.
	ModeSOR Mode = iota
	// ModeDOR is disk-oriented reconstruction: one process per disk
	// drains the read operations pending on that disk, sharing a single
	// global cache; chains assemble as their members arrive and spare
	// writes go to the failed disks. Parallelism equals the disk count.
	ModeDOR
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeSOR:
		return "sor"
	case ModeDOR:
		return "dor"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// dorTask is one parity chain waiting for its surviving members.
type dorTask struct {
	stripe    int
	failDisk  int
	fetch     []grid.Coord
	remaining int
}

// dorOp is one acquire operation: bring a chunk into reach (cache hit
// or disk read) on behalf of a task.
type dorOp struct {
	task *dorTask
	cell grid.Coord
}

// runDOR executes disk-oriented reconstruction on the simulator and
// array Run built. All schemes are
// generated up front (their priorities merge into one global
// dictionary), the acquire operations are distributed to per-disk
// queues, and each disk process serves its queue sequentially.
func runDOR(cfg Config, s *sim.Simulator, array *disk.Array, errors []core.PartialStripeError) (*Result, error) {
	policy, err := cache.New(cfg.Policy, cfg.CacheChunks)
	if err != nil {
		return nil, err
	}

	res := &Result{Policy: cfg.Policy, Strategy: cfg.Strategy, Groups: len(errors)}

	// Phase 1: generate every scheme, building the per-disk op queues
	// and the merged priority dictionary.
	queues := make([][]*dorOp, cfg.Code.Disks())
	merged := map[cache.ChunkID]int{}
	var allRequests []cache.ChunkID
	tasks := 0
	for _, group := range errors {
		start := time.Now()
		scheme, err := core.GenerateScheme(cfg.Code, group, cfg.Strategy)
		res.SchemeGenWall += time.Since(start)
		if err != nil {
			return nil, err
		}
		for id, pr := range scheme.PriorityIDs() {
			merged[id] += pr
		}
		for _, sel := range scheme.Selected {
			task := &dorTask{
				stripe:    group.Stripe,
				failDisk:  group.Disk,
				fetch:     sel.Fetch,
				remaining: len(sel.Fetch),
			}
			tasks++
			for _, cell := range sel.Fetch {
				queues[cell.Col] = append(queues[cell.Col], &dorOp{task: task, cell: cell})
				allRequests = append(allRequests, cache.ChunkID{Stripe: group.Stripe, Cell: cell})
			}
		}
	}
	if pa, ok := policy.(cache.PriorityAware); ok {
		pa.SetPriorities(merged)
	}
	if fa, ok := policy.(cache.FutureAware); ok {
		fa.SetFuture(allRequests)
	}

	// Phase 2: run the disk processes.
	remainingTasks := tasks
	var taskDone func(t *dorTask)
	taskDone = func(t *dorTask) {
		xor := cfg.XORPerChunk * sim.Time(len(t.fetch))
		res.XORChunks += uint64(len(t.fetch))
		s.Schedule(xor, func() {
			err := array.WriteSpare(t.failDisk, func(_, _ sim.Time) {
				remainingTasks--
				if remainingTasks == 0 {
					res.Makespan = s.Now()
				}
			})
			if err != nil {
				panic(fmt.Sprintf("rebuild: dor spare write failed: %v", err))
			}
		})
	}

	var serve func(diskID int)
	serve = func(diskID int) {
		q := queues[diskID]
		if len(q) == 0 {
			return
		}
		op := q[0]
		queues[diskID] = q[1:]
		// The controller's cache lookup costs CacheAccess of this disk
		// process's time; hits skip the media read.
		res.TotalRequests++
		id := cache.ChunkID{Stripe: op.task.stripe, Cell: op.cell}
		hit := policy.Request(id)
		s.Schedule(cfg.CacheAccess, func() {
			if hit {
				res.Cache.Hits++
				res.SumResponse += cfg.CacheAccess
				op.task.remaining--
				if op.task.remaining == 0 {
					taskDone(op.task)
				}
				serve(diskID)
				return
			}
			res.Cache.Misses++
			err := array.ReadChunk(op.task.stripe, op.cell, func(issued, completed sim.Time) {
				res.SumResponse += cfg.CacheAccess + (completed - issued)
				op.task.remaining--
				if op.task.remaining == 0 {
					taskDone(op.task)
				}
				serve(diskID)
			})
			if err != nil {
				panic(fmt.Sprintf("rebuild: dor read failed: %v", err))
			}
		})
	}
	for d := 0; d < cfg.Code.Disks(); d++ {
		d := d
		s.Schedule(0, func() { serve(d) })
	}
	s.Run()

	if remainingTasks != 0 {
		return nil, fmt.Errorf("rebuild: dor finished with %d tasks outstanding", remainingTasks)
	}
	res.Cache.Evictions = policy.Stats().Evictions
	return res.countDisks(array), nil
}
