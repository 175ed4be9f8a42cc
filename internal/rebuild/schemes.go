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
// generation made. GenerateScheme is a pure function of the read-only
// code and group, so the producer shares nothing else with the loop.
type schemeFeed struct {
	batches chan []generated
	quit    chan struct{}
	done    chan struct{}
	cur     []generated
}

// startSchemes starts the producer for groups under strategy.
func startSchemes(code *codes.Code, strategy core.Strategy, groups []core.PartialStripeError) *schemeFeed {
	f := &schemeFeed{
		batches: make(chan []generated, schemeDepth),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go func() {
		defer close(f.done)
		for lo := 0; lo < len(groups); lo += schemeBatch {
			batch := make([]generated, min(schemeBatch, len(groups)-lo))
			for i := range batch {
				start := time.Now()
				s, err := core.GenerateScheme(code, groups[lo+i], strategy)
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

// next returns the next group's scheme, waiting for the producer when
// the current batch is used up. It must be called at most once per group.
func (f *schemeFeed) next() generated {
	if len(f.cur) == 0 {
		f.cur = <-f.batches
	}
	g := f.cur[0]
	f.cur = f.cur[1:]
	return g
}

// stop ends the producer, whether or not every scheme was taken, and
// waits for it to exit.
func (f *schemeFeed) stop() {
	close(f.quit)
	<-f.done
}
