package rebuild

import (
	"fbf/internal/chunk"
	"fbf/internal/grid"
)

// flight is one stripe evaluated on a lane goroutine ahead of its turn:
// the plan and pass the caller built for it, the buffers it owns until
// the caller has written it back, and what the evaluation found.
// The lane writes esc, err, tally and bufs' bytes, then signals done; the
// caller reads them only after receiving from done.
type flight struct {
	stripe int
	lost   []grid.Coord
	plan   *schemePlan
	pass   *decodePass
	bufs   []chunk.Chunk

	esc   *grid.Coord
	err   error
	tally evalTally
	done  chan struct{} // one send per evaluation
}

// repairInFlight is the repair loop. It keeps up to k stripes in
// evaluation at once, each on a lane goroutine (evaluate, with buffers
// the flight owns), and does everything else on this goroutine in repair
// order: planning, escalation, writeBack, the journal, the counters,
// Progress and Stop. So one stripe is written at a time, and the result
// and the cells end as they do at k = 0, where nothing is dispatched and
// every stripe is repaired here, one after the other, with no goroutine,
// channel or flight.
//
// Every stripe's evaluation reads only its own sources into buffers its
// flight owns, so decoded and chain-major stripes alike go ahead of their
// turn. A stripe whose plan cannot be made is not dispatched, for its
// error to come in order: the lanes drain, every earlier stripe is
// committed, and it is repaired here. A lane that meets an unreadable
// source leaves the escalation to this goroutine as well. A Stop
// discards the evaluations not yet written, and no lane outlives the
// call.
func (s *service) repairInFlight(order []StripeDamage, k int) error {
	window := make([]*flight, 0, k) // dispatched, in repair order
	var idle []*flight              // flights no lane is using, with their buffers
	defer func() {
		for _, f := range window {
			<-f.done
		}
	}()
	next := 0        // order[next] is the first stripe not dispatched
	blocked := false // order[next] is repaired here, so nothing behind it may go ahead
	fill := func() {
		for len(window) < k && next < len(order) && !blocked && !stopRequested(s.cfg.Stop) {
			f := s.dispatch(order[next], &idle)
			if f == nil {
				blocked = true
				break
			}
			window = append(window, f)
			next++
		}
	}
	for _, d := range order {
		if stopRequested(s.cfg.Stop) {
			s.res.Interrupted = true
			break
		}
		fill()
		var err error
		if len(window) == 0 {
			// d is order[next], the stripe fill stopped at.
			next++
			blocked = false
			err = s.repairStripe(d)
		} else {
			f := window[0]
			window = append(window[:0], window[1:]...)
			<-f.done
			fill() // f's lane is free: keep k in evaluation while f is written
			s.beginStripe(d.Stripe, f.plan)
			err = s.replay(d.Stripe, f.lost, f.plan, f)
			idle = append(idle, f)
		}
		if err != nil {
			return err
		}
		if s.res.Interrupted {
			// The stop landed mid-stripe: the writes in flight were
			// finished and committed, but the stripe was not.
			break
		}
		s.finished(d.Stripe, len(order))
	}
	return nil
}

// dispatch plans a stripe and starts its read-once pass on a lane, in a
// flight taken from idle or made anew. It returns nil for a stripe whose
// plan fails, which must be repaired on the calling goroutine.
func (s *service) dispatch(d StripeDamage, idle *[]*flight) *flight {
	lost := d.Lost()
	plan, err := s.planFor(d.Stripe, lost)
	if err != nil {
		return nil
	}
	pass, err := s.passFor(plan)
	if err != nil {
		return nil
	}
	var f *flight
	if n := len(*idle); n > 0 {
		f, *idle = (*idle)[n-1], (*idle)[:n-1]
	} else {
		f = &flight{done: make(chan struct{}, 1)}
	}
	for len(f.bufs) < pass.width() {
		f.bufs = append(f.bufs, s.pool.GetRaw())
	}
	f.stripe, f.lost, f.plan, f.pass = d.Stripe, lost, plan, pass
	f.esc, f.err, f.tally = nil, nil, evalTally{}
	go func() {
		f.esc, f.err = s.evaluate(d.Stripe, pass, f.bufs[:pass.width()], &f.tally)
		f.done <- struct{}{}
	}()
	return f
}

// land books an evaluation and, if it found the stripe repaired, writes
// the stripe back: replay's first attempt for a dispatched stripe, and
// every attempt replayPass makes on the calling goroutine.
func (s *service) land(f *flight) (*grid.Coord, error) {
	f.tally.book(s.m)
	if f.esc != nil || f.err != nil {
		return f.esc, f.err
	}
	return nil, s.writeStripe(f.stripe, f.plan.scheme.Selected, f.pass.out(f.bufs))
}
