package rebuild

import (
	"time"

	"fbf/internal/codes"
	"fbf/internal/core"
)

// The SOR producer's hand-over. Sized on sim-sor (TIP p=13, 8 000
// groups, 64 workers, 2 cores): at 128 schemes a batch and room for 2
// batches the event loop waited for each run's first batch only, and
// pays one channel receive per 128 groups. See EXPERIMENTS "Schemes one
// batch ahead".
const (
	schemeBatch = 128 // schemes per hand-over
	schemeDepth = 2   // batches the channel holds
)

// generated is one group's scheme, the wall time its generation took
// and the error it failed with, if any.
type generated struct {
	scheme *core.Scheme
	wall   time.Duration
	err    error
}

// schemeFeed generates a trace's schemes on one producer goroutine,
// strictly in trace order, and hands them to the event loop in batches.
// The event loop claims groups in trace order too, so the i-th next
// returns the scheme of the i-th group: the run is the one the inline
// generation made. Scheme generation reads only the read-only code and
// group, so the producer shares nothing else with the loop.
//
// The loop hands back what it is done with: each used-up batch, and each
// scheme once its worker has installed the next one (recycle). A scheme
// is only ever in one place — the batch being filled, the channel, the
// loop's current batch, a worker, or a free list — and a hand-back's
// channel send orders the loop's last read of it before the producer's
// refill. At most schemeDepth+2 batches are out at once (being filled,
// in the channel, and the loop's current one), so at most that many
// batches of schemes plus one per worker, and never more than the run's
// groups: the pool. The producer allocates until it has made the pool
// and refills from then on, so a run makes the same allocations whatever
// the goroutines' timing, and none per group once the pool is made.
type schemeFeed struct {
	batches chan []generated
	quit    chan struct{}
	done    chan struct{}
	cur     []generated // the batch being handed out
	pos     int         // next scheme in cur

	freeBatches chan []generated  // holds every batch of the pool
	freeSchemes chan *core.Scheme // holds every scheme of the pool
}

// startSchemes starts the producer for groups under strategy, for a run
// with the given number of workers.
func startSchemes(code *codes.Code, strategy core.Strategy, groups []core.PartialStripeError, workers int) *schemeFeed {
	batchLen := min(schemeBatch, len(groups))
	poolBatches := schemeDepth + 2
	poolSchemes := min(poolBatches*schemeBatch+workers, len(groups))
	f := &schemeFeed{
		batches:     make(chan []generated, schemeDepth),
		quit:        make(chan struct{}),
		done:        make(chan struct{}),
		freeBatches: make(chan []generated, poolBatches),
		freeSchemes: make(chan *core.Scheme, poolSchemes),
	}
	go func() {
		defer close(f.done)
		madeBatches, madeSchemes := 0, 0
		for lo := 0; lo < len(groups); lo += schemeBatch {
			batch := reuse(f.freeBatches, &madeBatches, poolBatches, func() []generated { return make([]generated, batchLen) })
			batch = batch[:min(schemeBatch, len(groups)-lo)]
			for i := range batch {
				s := reuse(f.freeSchemes, &madeSchemes, poolSchemes, func() *core.Scheme { return new(core.Scheme) })
				start := time.Now()
				err := s.Generate(code, groups[lo+i], strategy)
				batch[i] = generated{scheme: s, wall: time.Since(start), err: err}
			}
			select {
			case f.batches <- batch:
			case <-f.quit:
				return
			}
		}
	}()
	return f
}

// reuse returns a new value from alloc until made reaches pool, and a
// handed-back one from free after that. Once the pool is made, free is
// never empty when the producer asks (the count above); alloc stays as
// the fallback rather than a wait.
func reuse[T any](free chan T, made *int, pool int, alloc func() T) T {
	if *made < pool {
		*made++
		return alloc()
	}
	select {
	case v := <-free:
		return v
	default:
		return alloc()
	}
}

// next returns the next group's scheme, waiting for the producer when
// the current batch is used up. It must be called at most once per group.
func (f *schemeFeed) next() generated {
	if f.pos == len(f.cur) {
		if f.cur != nil {
			handBack(f.freeBatches, f.cur[:cap(f.cur)])
		}
		f.cur, f.pos = <-f.batches, 0
	}
	f.pos++
	return f.cur[f.pos-1]
}

// recycle hands s back to the producer for refilling. Nothing of the
// loop may read s afterwards: its worker has installed the next scheme.
func (f *schemeFeed) recycle(s *core.Scheme) { handBack(f.freeSchemes, s) }

// handBack puts v on a free list without blocking; a list holds its
// whole pool, so it is never full.
func handBack[T any](free chan T, v T) {
	select {
	case free <- v:
	default:
	}
}

// stop ends the producer, whether or not every scheme was taken, and
// waits for it to exit.
func (f *schemeFeed) stop() {
	close(f.quit)
	<-f.done
}
