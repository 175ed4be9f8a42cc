package rebuild

import (
	"fbf/internal/chunk"
	"fbf/internal/store"
)

// writeBack writes chunks[i] to addr(i) for every i, keeping at most the
// backend's write depth (store.WriteDepth) of WriteChunk calls in flight,
// and calls booked(i) for every write that returned nil, as it is
// collected. A durable write is mostly waiting for its fsyncs; a stripe
// whose chunks are all ready before the first is written can wait for
// several at once.
//
// Only WriteChunk runs off the calling goroutine: addr, booked and the
// stop poll are the caller's, so what booked touches (the journal, the
// counters) needs no lock. stop is polled before each write is started;
// after a stop, a failed write or a failed booking no further write
// starts. Whatever is in flight is collected and booked before writeBack
// returns on any path, so the chunks are the caller's again afterwards.
// It returns the error of the lowest i that failed and whether a stop
// kept it from starting every write. With several writes in flight
// booked is called in completion order, not index order.
//
// At depth 1 — every backend that states none — this is the plain loop:
// same calls, same order, on the caller's goroutine, with no channel and
// no allocation.
func writeBack(b store.Backend, stop <-chan struct{}, chunks []chunk.Chunk, addr func(int) store.Addr, booked func(int) error) (stopped bool, err error) {
	depth := min(store.WriteDepth(b), len(chunks))
	if depth <= 1 {
		for i, c := range chunks {
			if stopRequested(stop) {
				return true, nil
			}
			if err := b.WriteChunk(addr(i), c); err != nil {
				return false, err
			}
			if err := booked(i); err != nil {
				return false, err
			}
		}
		return false, nil
	}

	type result struct {
		i   int
		err error
	}
	results := make(chan result, depth) // a slot per write in flight: no writer blocks on its send
	failedAt := -1
	next, inFlight := 0, 0
	for {
		for next < len(chunks) && inFlight < depth && failedAt < 0 && !stopped {
			if stopRequested(stop) {
				stopped = true
				break
			}
			i, a, c := next, addr(next), chunks[next]
			next++
			inFlight++
			go func() { results <- result{i, b.WriteChunk(a, c)} }()
		}
		if inFlight == 0 {
			break
		}
		r := <-results
		inFlight--
		if r.err == nil {
			r.err = booked(r.i)
		}
		if r.err != nil && (failedAt < 0 || r.i < failedAt) {
			failedAt, err = r.i, r.err
		}
	}
	return stopped, err
}
