package experiments

import (
	"fmt"
	"io"

	"fbf/internal/core"
	"fbf/internal/rebuild"
	"fbf/internal/sim"
	"fbf/internal/stats"
)

// OnlineRow reports one policy's behaviour under online recovery: how
// much a foreground application stream slows reconstruction, and how
// the foreground stream itself fares against the shared cache.
type OnlineRow struct {
	Code   string
	P      int
	Policy string

	QuietRecoveryMs  float64 // reconstruction time without foreground load
	LoadedRecoveryMs float64 // reconstruction time with foreground load
	SlowdownPct      float64

	AppHitRatio float64
	AppAvgMs    float64 // foreground mean response time
}

// OnlineRecovery runs the online-recovery experiment (the scenario of
// the paper's conclusion: "FBF is considered to be effective for
// parallel and online recovery as well"): each policy reconstructs the
// same error trace twice, once quiet and once with a foreground read
// stream sharing the cache and disks. It runs at 64 MB total.
func OnlineRecovery(p Params, app rebuild.AppWorkload) ([]OnlineRow, error) {
	if app.Requests <= 0 {
		app.Requests = 4 * p.Groups
	}
	if app.Interarrival <= 0 {
		app.Interarrival = sim.Millisecond
	}
	if app.ErrorLocality == 0 {
		// Sector errors cluster spatially, and so does the traffic around
		// them (Section II-C of the paper): by default half the foreground
		// requests land on stripes under repair.
		app.ErrorLocality = 0.5
	}
	return runs(p, p.Policies, []int{64}, func(pt Point, cfg rebuild.Config, errors []core.PartialStripeError) (OnlineRow, error) {
		quiet, err := rebuild.Run(cfg, errors)
		if err != nil {
			return OnlineRow{}, err
		}
		appCopy := app
		cfg.App = &appCopy
		loaded, err := rebuild.Run(cfg, errors)
		if err != nil {
			return OnlineRow{}, err
		}
		return OnlineRow{
			Code: pt.Code, P: pt.P, Policy: pt.Policy,
			QuietRecoveryMs:  quiet.Makespan.Milliseconds(),
			LoadedRecoveryMs: loaded.Makespan.Milliseconds(),
			SlowdownPct:      -stats.Improvement(quiet.Makespan.Milliseconds(), loaded.Makespan.Milliseconds()) * 100,
			AppHitRatio:      loaded.AppHitRatio(),
			AppAvgMs:         loaded.AppAvgResponse().Milliseconds(),
		}, nil
	})
}

// RenderOnline prints the online-recovery table.
func RenderOnline(w io.Writer, rows []OnlineRow) error {
	if _, err := fmt.Fprintln(w, "== ONLINE RECOVERY: Reconstruction Under Foreground Application Load =="); err != nil {
		return err
	}
	table := [][]string{{"code", "p", "policy", "quiet(ms)", "loaded(ms)", "slowdown", "app-hit", "app-resp(ms)"}}
	for _, r := range rows {
		table = append(table, []string{
			r.Code,
			fmt.Sprintf("%d", r.P),
			r.Policy,
			fmt.Sprintf("%.2f", r.QuietRecoveryMs),
			fmt.Sprintf("%.2f", r.LoadedRecoveryMs),
			fmt.Sprintf("%.2f%%", r.SlowdownPct),
			fmt.Sprintf("%.4f", r.AppHitRatio),
			fmt.Sprintf("%.2f", r.AppAvgMs),
		})
	}
	return renderAligned(w, table)
}
