package experiments

import (
	"runtime"
	"sync"

	"fbf/internal/lanes"
)

// parallelism resolves the effective worker count for a sweep: an
// explicit Params.Parallelism wins, otherwise GOMAXPROCS (one worker
// per schedulable core).
func (p Params) parallelism() int {
	if p.Parallelism > 0 {
		return p.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// forEachIndexed runs fn(0), ..., fn(n-1) on up to parallelism lanes
// (lanes.Each). It is the lane loop of runs, the executor behind every
// simulated artefact, and of prepareTraces:
//
//   - Ordering: fn writes its result into an index-addressed slot, so
//     the caller's output order is the enumeration order regardless of
//     which goroutine finished first. With parallelism <= 1 the jobs
//     run on the caller's goroutine in index order, as a serial loop would.
//   - Error propagation: after the first failure no new job starts
//     (in-flight jobs finish; each is an independent simulation, so
//     letting them drain is cheap and keeps slots consistent). The
//     failure with the smallest index is returned, matching what a
//     serial run over the same jobs reports.
//   - Progress: the callback sees (completed, total) after every
//     successful job. Calls are serialized under a mutex, but arrive
//     from lane goroutines — callbacks must not assume a single
//     caller goroutine identity.
//
// fn must only write to its own slot; jobs must not communicate. Every
// simulation job is deterministic and isolated (see rebuild.Run's
// concurrency contract), which is what makes the parallel schedule
// invisible in the results.
func forEachIndexed(parallelism, n int, progress func(done, total int), fn func(i int) error) error {
	var mu sync.Mutex
	done := 0
	return lanes.Each(parallelism, n, func(_, i int) error {
		if err := fn(i); err != nil || progress == nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		done++
		progress(done, n)
		return nil
	})
}
