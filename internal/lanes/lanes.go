// Package lanes runs indexed work on up to k goroutines (lanes) while the
// caller keeps the order. It has two rules, one per function:
//
//   - Each hands out indices in ascending order to lanes that run them to
//     the end, and stops handing out at the first failure: the scan's
//     disks and the experiment sweeps' points.
//   - Ahead runs a step's work on a lane ahead of its turn and everything
//     else of it on the caller's goroutine in index order, each step in a
//     slot of buffers it owns until its turn is over: array set-up's
//     stripes and the repair loop's.
//
// At k ≤ 1 neither starts a goroutine: Each runs every index on the
// caller's goroutine as lane 0, and Ahead is the plain loop, with no
// channel or lock.
package lanes

import "sync"

// Each runs fn(lane, i) for i in [0, n) on up to k lanes and returns the
// error of the lowest i whose fn failed, or nil. Lanes take indices in
// ascending order under a mutex and take none once an fn has returned an
// error, so every index below the lowest failing one was taken earlier
// and ran to its end: the error is the one the plain loop returns. The
// caller's goroutine is lane 0, and lane numbers are below min(k, n), so
// a caller can keep per-lane state in a slice indexed by lane. Each
// returns once every lane has.
func Each(k, n int, fn func(lane, i int) error) error {
	var (
		mu       sync.Mutex
		next     int // the next index to hand out
		failedAt = n // the lowest failing index; n while none has failed
		err      error
	)
	run := func(lane int) {
		for {
			mu.Lock()
			i := next
			if failedAt < n || i == n {
				mu.Unlock()
				return
			}
			next++
			mu.Unlock()
			if e := fn(lane, i); e != nil {
				mu.Lock()
				if i < failedAt {
					failedAt, err = i, e
				}
				mu.Unlock()
			}
		}
	}
	var wg sync.WaitGroup
	for lane := 1; lane < min(k, n); lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(lane)
		}()
	}
	run(0)
	wg.Wait()
	return err
}

// Ahead runs n steps. Step i is begin(i, slot), then work(i, slot), then
// end(i, slot), and owns slot i % slots from its begin until its end
// returns, so per-step buffers kept in a slice of slots are never shared.
// begin and end run on the caller's goroutine, in ascending i; work runs
// on a lane goroutine, ahead of the step's turn, with at most k steps in
// work (begun and not yet taken back for their end) and at most slots
// steps begun and not ended. With slots = k+1, k steps are in work while
// the caller ends the one before them; with slots = k, k−1 are.
//
// A begin that returns false ends the beginning: no step from it on is
// begun, and the steps begun before it still run to their end. An end
// that returns an error stops the run: nothing more is begun or ended,
// and Ahead returns that error. Either way every lane is joined first, so
// no work runs once Ahead has returned. At k ≤ 1 it is the plain loop on
// the caller's goroutine, every step in slot 0.
func Ahead(k, slots, n int, begin func(i, slot int) bool, work func(i, slot int), end func(i, slot int) error) error {
	if k <= 1 {
		for i := range n {
			if !begin(i, 0) {
				return nil
			}
			work(i, 0)
			if err := end(i, 0); err != nil {
				return err
			}
		}
		return nil
	}
	done := make([]chan struct{}, slots) // one send per work returned in the slot
	for j := range done {
		done[j] = make(chan struct{}, 1)
	}
	var (
		taken   int  // steps below taken are back from work
		next    int  // steps below next are begun
		refused bool // a begin has returned false
	)
	defer func() {
		for ; taken < next; taken++ {
			<-done[taken%slots]
		}
	}()
	// fill begins steps while both bounds allow, with step i next to end.
	fill := func(i int) {
		for !refused && next < n && next-i < slots && next-taken < k {
			step, slot := next, next%slots
			if refused = !begin(step, slot); refused {
				return
			}
			next++
			go func() {
				work(step, slot)
				done[slot] <- struct{}{}
			}()
		}
	}
	for i := range n {
		fill(i)
		if i == next {
			return nil // step i was refused
		}
		<-done[i%slots]
		taken++
		fill(i)
		if err := end(i, i%slots); err != nil {
			return err
		}
	}
	return nil
}
