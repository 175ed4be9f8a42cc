package experiments

import (
	"fmt"
	"io"

	"fbf/internal/core"
	"fbf/internal/rebuild"
)

// ModeRow compares stripe-oriented and disk-oriented reconstruction for
// one (code, prime, policy).
type ModeRow struct {
	Code   string
	P      int
	Policy string

	SORMs  float64 // SOR reconstruction time
	DORMs  float64 // DOR reconstruction time
	SORHit float64
	DORHit float64
}

// ModeComparison runs the SOR-vs-DOR ablation (Section III-B of the
// paper) at a fixed representative cache size (64 MB total): each policy
// runs its (code, prime)'s trace once per mode.
func ModeComparison(p Params) ([]ModeRow, error) {
	return runs(p, p.Policies, []int{64}, func(pt Point, cfg rebuild.Config, errors []core.PartialStripeError) (ModeRow, error) {
		sor, err := rebuild.Run(cfg, errors)
		if err != nil {
			return ModeRow{}, err
		}
		cfg.Mode = rebuild.ModeDOR
		dor, err := rebuild.Run(cfg, errors)
		if err != nil {
			return ModeRow{}, err
		}
		return ModeRow{
			Code: pt.Code, P: pt.P, Policy: pt.Policy,
			SORMs: sor.Makespan.Milliseconds(), DORMs: dor.Makespan.Milliseconds(),
			SORHit: sor.HitRatio(), DORHit: dor.HitRatio(),
		}, nil
	})
}

// RenderModes prints the SOR-vs-DOR table.
func RenderModes(w io.Writer, rows []ModeRow) error {
	if _, err := fmt.Fprintln(w, "== ABLATION: Stripe-Oriented vs Disk-Oriented Reconstruction =="); err != nil {
		return err
	}
	table := [][]string{{"code", "p", "policy", "sor(ms)", "dor(ms)", "sor-hit", "dor-hit"}}
	for _, r := range rows {
		table = append(table, []string{
			r.Code,
			fmt.Sprintf("%d", r.P),
			r.Policy,
			fmt.Sprintf("%.2f", r.SORMs),
			fmt.Sprintf("%.2f", r.DORMs),
			fmt.Sprintf("%.4f", r.SORHit),
			fmt.Sprintf("%.4f", r.DORHit),
		})
	}
	return renderAligned(w, table)
}
