package rebuild

import (
	"fbf/internal/chunk"
	"fbf/internal/grid"
	"fbf/internal/lanes"
)

// flight is one stripe under repair in its slot of the repair loop: the
// plan the caller made for it, the buffers the slot keeps from one stripe
// to the next, and what the last evaluation found. A lane writes esc,
// err, tally and bufs; the caller reads them only once lanes.Ahead has
// taken the stripe back for its end.
type flight struct {
	stripe int
	lost   []grid.Coord
	plan   *schemePlan
	bufs   []chunk.Chunk

	esc   *grid.Coord
	err   error
	tally evalTally
}

// repairInFlight is the repair loop, on lanes.Ahead with k+1 slots: up to
// k stripes are in evaluation at once, each on a lane (evaluate, in its
// flight's buffers), while the calling goroutine writes back the one
// before them. Everything else runs on the calling goroutine in repair
// order: planning, escalation, writeBack, the journal, the counters,
// Progress and Stop. So one stripe is written at a time, and the result
// and the cells end as they do at k = 1, where the loop is the plain one.
//
// A stripe whose plan cannot be made is evaluated by no lane and fails
// the run in its turn, after every earlier stripe is committed. A lane
// that meets an unreadable source leaves the escalation to the calling
// goroutine, which re-evaluates the stripe in its flight. Stop is polled
// before a stripe is begun and between turns: a stop lands the stripe
// whose turn it is (writeBack starts no write after it) and discards the
// evaluations behind it unbooked. No lane outlives the call.
func (s *service) repairInFlight(order []StripeDamage, k int) error {
	flights := make([]flight, max(k, 1)+1)
	halted := false // Stop had fired as the last turn ended: discard the rest
	begin := func(i, slot int) bool {
		if s.stopped() {
			return false
		}
		f := &flights[slot]
		*f = flight{stripe: order[i].Stripe, lost: order[i].Lost(), bufs: f.bufs}
		f.plan, f.err = s.planFor(f.stripe, f.lost)
		return true
	}
	work := func(_, slot int) {
		if f := &flights[slot]; f.plan != nil && f.plan.pass != nil {
			f.esc, f.err = s.evaluate(f)
		}
	}
	end := func(_, slot int) error {
		if halted {
			s.res.Interrupted = true
			return nil
		}
		f := &flights[slot]
		if f.plan == nil {
			return f.err
		}
		s.beginStripe(f.stripe, f.plan)
		if s.cfg.DryRun {
			s.res.PlannedChunks += len(f.plan.scheme.Selected)
			s.res.PlannedReads += f.plan.scheme.UniqueFetches()
		} else if err := s.replay(f); err != nil {
			return err
		}
		if !s.res.Interrupted { // a stop mid-stripe leaves it unfinished
			s.finished(f.stripe, len(order))
		}
		halted = stopRequested(s.cfg.Stop)
		return nil
	}
	return lanes.Ahead(k, k+1, len(order), begin, work, end)
}

// land books an evaluation and, if it found the stripe repaired, writes
// the stripe back.
func (s *service) land(f *flight) (*grid.Coord, error) {
	f.tally.book(s.m)
	if f.esc != nil || f.err != nil {
		return f.esc, f.err
	}
	return nil, s.writeStripe(f.stripe, f.plan.scheme.Selected, f.plan.pass.out(f.bufs))
}
