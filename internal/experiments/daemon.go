package experiments

import (
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// DaemonRow is one configuration of the idle-daemon study.
type DaemonRow struct {
	// Config names the MECC variant.
	Config string
	// SlowRefreshPct is the fraction of the daemon's execution during
	// which the memory kept the 16x-slower refresh rate.
	SlowRefreshPct float64
	// RefreshEnergyJ is auto-refresh energy spent during the episode.
	RefreshEnergyJ float64
	// IPC is the daemon's performance (it is latency-insensitive, so a
	// drop is acceptable — the paper's point).
	IPC float64
}

// DaemonResult carries the Section VI-B study.
type DaemonResult struct {
	Rows     []DaemonRow
	Rendered string
}

// Daemon reproduces the Section VI-B scenario that motivates SMD: while
// the device "idles", short periodic background work (bluetooth checks,
// sync) keeps waking the processor. Without SMD every wake-up pays a
// full ECC-Downgrade/Upgrade round trip and runs refresh at the fast
// rate; with SMD the daemon's traffic stays under the MPKC threshold,
// ECC-Downgrade never engages, and memory keeps its power-optimized
// 1 s refresh throughout.
func Daemon(s *Suite) (DaemonResult, error) {
	prof := workload.Daemon()
	instrs := s.opts.Instructions() / 10 // daemon episodes are short

	variants := []struct {
		name string
		smd  bool
	}{
		{"MECC without SMD", false},
		{"MECC with SMD (MPKC=2)", true},
	}
	jobs := make([]runJob, len(variants))
	for i, v := range variants {
		cfg := s.opts.SimConfig(sim.SchemeMECC)
		cfg.MECC.SMDEnabled = v.smd
		cfg.Instructions = instrs
		jobs[i] = runJob{prof: prof, cfg: cfg}
	}
	res, err := s.run(jobs)
	if err != nil {
		return DaemonResult{}, err
	}
	var out DaemonResult
	tb := stats.NewTable("Config", "Slow-refresh time", "Refresh energy (uJ)", "Daemon IPC")
	for i, r := range res {
		row := DaemonRow{Config: variants[i].name, IPC: r.IPC}
		if r.MECC != nil && r.MECC.ActiveCycles > 0 {
			// Downgrade-disabled time is exactly the time the refresh
			// divider stayed at 16x (core.RefreshDividerBits).
			row.SlowRefreshPct = float64(r.MECC.DowngradeDisabledCycles) /
				float64(r.MECC.ActiveCycles) * 100
		}
		row.RefreshEnergyJ = r.Energy.RefreshJ
		out.Rows = append(out.Rows, row)
		tb.AddRow(row.Config, row.SlowRefreshPct, row.RefreshEnergyJ*1e6, row.IPC)
	}
	out.Rendered = tb.String()
	return out, nil
}

// ModelRow is one benchmark's analytic-vs-simulated comparison.
type ModelRow struct {
	// Benchmark names the workload.
	Benchmark string
	// SimIPC and ModelIPC are the simulated and first-order analytic
	// IPCs under ECC-6.
	SimIPC, ModelIPC float64
	// ErrPct is the relative model error.
	ErrPct float64
}

// ModelResult carries the cross-validation.
type ModelResult struct {
	Rows []ModelRow
	// MeanAbsErrPct is the mean absolute relative error.
	MeanAbsErrPct float64
	Rendered      string
}

// ModelValidation cross-checks the cycle simulator against first-order
// queueing-free theory: CPI = BaseCPI + MPKI/1000 x (memory latency +
// decode latency). Agreement within a few percent says the simulator's
// slowdowns come from the modelled latencies, not artifacts — the same
// sanity argument the paper's Section III-E latency discussion leans on.
func ModelValidation(s *Suite) (ModelResult, error) {
	matrix, err := s.Matrix(sim.SchemeBaseline, sim.SchemeECC6)
	if err != nil {
		return ModelResult{}, err
	}
	var out ModelResult
	tb := stats.NewTable("Benchmark", "Sim IPC (ECC-6)", "Model IPC", "Error")
	var sumAbs float64
	for _, p := range workload.All() {
		base := matrix[p.Name][sim.SchemeBaseline]
		e6 := matrix[p.Name][sim.SchemeECC6]
		// Memory latency observed under the baseline plus the 30-cycle
		// decode; writes are off the critical path.
		const decode = 30
		// Infer the effective non-memory CPI from the baseline run
		// (includes write-queue interference the analytic model folds
		// into the base term).
		baseCPI := 1/base.IPC - base.MPKI/1000*base.AvgReadLatencyCPU
		modelCPI := baseCPI + e6.MPKI/1000*(base.AvgReadLatencyCPU+decode)
		row := ModelRow{
			Benchmark: p.Name,
			SimIPC:    e6.IPC,
			ModelIPC:  1 / modelCPI,
		}
		row.ErrPct = (row.ModelIPC/row.SimIPC - 1) * 100
		if row.ErrPct < 0 {
			sumAbs -= row.ErrPct
		} else {
			sumAbs += row.ErrPct
		}
		out.Rows = append(out.Rows, row)
		tb.AddRow(p.Name, row.SimIPC, row.ModelIPC, row.ErrPct)
	}
	out.MeanAbsErrPct = sumAbs / float64(len(out.Rows))
	tb.AddRow("MEAN |err|", "", "", out.MeanAbsErrPct)
	out.Rendered = tb.String()
	return out, nil
}
