package experiments

import (
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// DayRow is one scheme's outcome over the usage pattern.
type DayRow struct {
	// Scheme identifies the configuration.
	Scheme sim.SchemeKind
	// EnergyJ is total memory energy over the pattern (active + idle +
	// transitions).
	EnergyJ float64
	// SavingPct is energy saved vs the baseline scheme.
	SavingPct float64
	// MeanIPC is the active-phase IPC.
	MeanIPC float64
	// UpgradedLines totals ECC-Upgrade work across idle entries.
	UpgradedLines uint64
}

// DayResult carries the usage-pattern comparison.
type DayResult struct {
	// Sessions and IdlePerSession describe the simulated pattern.
	Sessions       int
	IdlePerSession time.Duration
	Rows           []DayRow
	Rendered       string
}

// DayInTheLife drives the Fig. 1 usage pattern through the full phase
// simulator (not the analytic composition of Fig. 10): for each scheme,
// a mobile browsing workload runs in short bursts separated by idle
// periods with real self-refresh transitions, MECC upgrade sweeps
// included. Durations are scaled like everything else; the *relative*
// energies are the result.
func DayInTheLife(opts Options) (DayResult, error) {
	if err := opts.Validate(); err != nil {
		return DayResult{}, err
	}
	prof, err := workload.MobileByName("webbrowse")
	if err != nil {
		return DayResult{}, err
	}
	prof = prof.Scaled(opts.Scale)

	out := DayResult{
		Sessions: 6,
		// A day has ~95% idle: with bursts of ~1/6 of the scaled slice,
		// give each session ~20x the burst's wall time in idle.
		IdlePerSession: 100 * time.Millisecond,
	}
	burst := opts.Instructions() / 6

	schemes := []sim.SchemeKind{sim.SchemeBaseline, sim.SchemeECC6, sim.SchemeMECC}
	opts.Obs.Progress().SetWork(0, uint64(len(schemes)*out.Sessions)*uint64(burst))
	tb := stats.NewTable("Scheme", "Energy (mJ)", "Saving", "Active IPC", "Upgraded lines")
	var baseline float64
	for _, k := range schemes {
		cfg := opts.SimConfig(k)
		runner, err := sim.NewRunner(prof, cfg)
		if err != nil {
			return DayResult{}, err
		}
		var upgraded uint64
		for s := 0; s < out.Sessions; s++ {
			if err := runner.RunActive(burst); err != nil {
				return DayResult{}, err
			}
			if err := runner.GoIdle(out.IdlePerSession); err != nil {
				return DayResult{}, err
			}
			upgraded += runner.LastTransition().LinesUpgraded
			if err := runner.WakeUp(); err != nil {
				return DayResult{}, err
			}
		}
		res := runner.Result()
		row := DayRow{
			Scheme:        k,
			EnergyJ:       res.TotalEnergyJ(),
			MeanIPC:       res.IPC,
			UpgradedLines: upgraded,
		}
		if k == sim.SchemeBaseline {
			baseline = row.EnergyJ
		}
		row.SavingPct = (1 - row.EnergyJ/baseline) * 100
		out.Rows = append(out.Rows, row)
		tb.AddRow(k.String(), row.EnergyJ*1e3, row.SavingPct, row.MeanIPC, int(row.UpgradedLines))
	}
	out.Rendered = tb.String()
	return out, nil
}
