package verify

import (
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/grid"
)

// SweepEscalations exercises regenerated recovery schemes across the
// escalation scenarios rebuild.RunService's escalation plans: for every
// disk's maximal partial-stripe error it escalates each surviving cell
// in turn (one bad survivor), fails each other column (a second disk
// failure), fails two (a third), and fails three (beyond any 3DFT
// code's tolerance — the graceful-loss path), byte-verifying every
// regenerated scheme and loss verdict against the gf2 oracle
// (checkPattern). It stops at the first divergence.
func SweepEscalations(cfg StripeConfig) (*StripeReport, error) {
	return sweep(cfg, func(code *codes.Code, check checkFunc) error {
		for d := 0; d < code.Disks(); d++ {
			e := core.PartialStripeError{Stripe: 0, Disk: d, Row: 0, Size: min(code.MaxPartialSize(), code.Rows())}
			others := make([]int, 0, code.Disks()-1)
			for col := 0; col < code.Disks(); col++ {
				if col != d {
					others = append(others, col)
				}
			}
			// Every surviving cell escalated on its own.
			for _, col := range others {
				for row := 0; row < code.Rows(); row++ {
					if err := check(e, []grid.Coord{{Row: row, Col: col}}, nil); err != nil {
						return err
					}
				}
			}
			// Cascading whole-disk failures: one, two and (beyond 3DFT
			// tolerance, exercising the graceful-loss verdicts) three more
			// columns.
			for n := 1; n <= 3; n++ {
				for i := 0; i+n <= len(others); i += n {
					if err := check(e, nil, others[i:i+n]); err != nil {
						return err
					}
				}
			}
			// An unreadable survivor on top of a dead disk.
			esc := grid.Coord{Row: code.Rows() / 2, Col: others[len(others)-1]}
			if err := check(e, []grid.Coord{esc}, others[:1]); err != nil {
				return err
			}
		}
		return nil
	})
}
