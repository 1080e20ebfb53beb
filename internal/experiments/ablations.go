package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/power"
	"repro/internal/reliability"
	"repro/internal/retention"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Ablations beyond the paper's own sensitivity study (DESIGN.md §4):
// MDT sizing, SMD threshold, weak-code choice, and the refresh-period /
// ECC-strength trade-off that generalizes Table I.

// MDTAblationRow is one MDT configuration's cost/benefit.
type MDTAblationRow struct {
	// Entries is the MDT size (0 = disabled, sweep whole memory).
	Entries int
	// StorageBytes is the table's hardware cost.
	StorageBytes int
	// UpgradeMs is the mean ECC-Upgrade sweep time across benchmarks.
	UpgradeMs float64
}

// MDTAblationResult carries the MDT sizing study.
type MDTAblationResult struct {
	Rows     []MDTAblationRow
	Rendered string
}

// AblationMDT sweeps the MDT region count and measures the idle-entry
// upgrade sweep latency averaged over the 28 benchmarks' access streams
// (full footprints, no timing model — as Fig11).
func AblationMDT(s *Suite) (MDTAblationResult, error) {
	cfg := dram.DefaultConfig()
	entriesSweep := []int{0, 256, 1024, 4096}
	var out MDTAblationResult
	tb := stats.NewTable("MDT entries", "Storage (B)", "Mean upgrade (ms)")
	for _, entries := range entriesSweep {
		var totalMs float64
		for _, p := range workload.All() {
			mc := core.DefaultConfig(cfg.TotalLines())
			mc.MDTEnabled = entries > 0
			if entries > 0 {
				mc.MDTEntries = entries
			}
			ctl, now, err := replayMDT(p, mc, s.opts)
			if err != nil {
				return MDTAblationResult{}, err
			}
			tr, err := ctl.EnterIdle(now)
			if err != nil {
				return MDTAblationResult{}, err
			}
			totalMs += float64(tr.SweepCycles) / float64(cfg.CPUClockHz) * 1000
		}
		storage := 0
		if entries > 0 {
			storage = (entries + 7) / 8
		}
		row := MDTAblationRow{
			Entries:      entries,
			StorageBytes: storage,
			UpgradeMs:    totalMs / float64(len(workload.All())),
		}
		out.Rows = append(out.Rows, row)
		tb.AddRow(entries, storage, row.UpgradeMs)
	}
	out.Rendered = tb.String()
	return out, nil
}

// SMDThresholdRow is one threshold point.
type SMDThresholdRow struct {
	// ThresholdMPKC is the SMD enable threshold.
	ThresholdMPKC float64
	// NeverEnabled counts benchmarks that never enable ECC-Downgrade.
	NeverEnabled int
	// GeomeanIPC is normalized IPC across the suite.
	GeomeanIPC float64
}

// SMDThresholdResult carries the SMD threshold sweep.
type SMDThresholdResult struct {
	Rows     []SMDThresholdRow
	Rendered string
}

// AblationSMDThreshold sweeps the SMD MPKC threshold: higher thresholds
// keep more workloads power-optimized at a growing performance cost.
func AblationSMDThreshold(s *Suite) (SMDThresholdResult, error) {
	base, err := s.Matrix(sim.SchemeBaseline)
	if err != nil {
		return SMDThresholdResult{}, err
	}
	thresholds := []float64{0.5, 1, 2, 4, 8}
	profs := workload.All()
	jobs := make([]runJob, 0, len(thresholds)*len(profs))
	for _, th := range thresholds {
		for _, p := range profs {
			cfg := s.opts.SimConfig(sim.SchemeMECC)
			cfg.MECC.SMDEnabled = true
			cfg.MECC.SMDThresholdMPKC = th
			jobs = append(jobs, runJob{prof: p.Scaled(s.opts.Scale), cfg: cfg})
		}
	}
	res, err := s.run(jobs)
	if err != nil {
		return SMDThresholdResult{}, err
	}
	var out SMDThresholdResult
	tb := stats.NewTable("MPKC threshold", "Never enabled", "Geomean IPC")
	for t, th := range thresholds {
		row := SMDThresholdRow{ThresholdMPKC: th}
		var norm []float64
		for i, p := range profs {
			r := res[t*len(profs)+i]
			if r.MECC != nil && r.MECC.ActiveCycles > 0 &&
				float64(r.MECC.DowngradeDisabledCycles)/float64(r.MECC.ActiveCycles) > 0.995 {
				row.NeverEnabled++
			}
			norm = append(norm, r.IPC/base[p.Name][sim.SchemeBaseline].IPC)
		}
		gm, err := stats.Geomean(norm)
		if err != nil {
			return SMDThresholdResult{}, err
		}
		row.GeomeanIPC = gm
		out.Rows = append(out.Rows, row)
		tb.AddRow(th, row.NeverEnabled, gm)
	}
	out.Rendered = tb.String()
	return out, nil
}

// RefreshSweepRow extends Table I across refresh periods.
type RefreshSweepRow struct {
	// Period is the refresh period.
	Period time.Duration
	// BER is the modelled raw bit error rate at that period.
	BER float64
	// RequiredECC is the minimum strength meeting the 1e-6 system bar
	// (plus one soft-error level).
	RequiredECC int
	// RefreshPowerNorm is refresh power relative to the 64 ms baseline.
	RefreshPowerNorm float64
	// IdlePowerNorm is total idle power relative to baseline.
	IdlePowerNorm float64
}

// RefreshSweepResult carries the refresh-period design-space sweep.
type RefreshSweepResult struct {
	Rows     []RefreshSweepRow
	Rendered string
}

// AblationRefreshSweep explores the refresh period vs required ECC
// strength trade-off (the design space from which the paper picks 1 s /
// ECC-6).
func AblationRefreshSweep() (RefreshSweepResult, error) {
	model := retention.DefaultModel()
	calc, err := power.NewCalculator(power.DefaultParams(), dram.DefaultConfig())
	if err != nil {
		return RefreshSweepResult{}, err
	}
	baseIdle := calc.IdlePower(0).Total()
	periods := []time.Duration{
		64 * time.Millisecond, 128 * time.Millisecond, 256 * time.Millisecond,
		512 * time.Millisecond, time.Second, 2 * time.Second,
	}
	var out RefreshSweepResult
	tb := stats.NewTable("Period", "BER", "Required ECC", "Refresh power", "Idle power")
	for i, p := range periods {
		ber := model.BER(p)
		req := 0
		if ber > 0 {
			// Below ~1e-9 the expected failures per memory are
			// negligible even unprotected, matching the shipped-DRAM
			// assumption at 64 ms; add the soft-error margin only when
			// retention failures require correction at all.
			if ber > 2e-9 {
				req, err = reliability.RequiredStrength(
					ber, reliability.DefaultLineBits, reliability.DefaultMemoryLines,
					reliability.TargetSystemFailure, 1)
				if err != nil {
					return RefreshSweepResult{}, err
				}
			}
		}
		idle := calc.IdlePower(i) // divider doubles per step: 1x,2x,...32x
		row := RefreshSweepRow{
			Period:           p,
			BER:              ber,
			RequiredECC:      req,
			RefreshPowerNorm: 1 / float64(uint(1)<<i),
			IdlePowerNorm:    idle.Total() / baseIdle,
		}
		out.Rows = append(out.Rows, row)
		tb.AddRow(p.String(), ber, fmt.Sprintf("ECC-%d", req), row.RefreshPowerNorm, row.IdlePowerNorm)
	}
	out.Rendered = tb.String()
	return out, nil
}

// MappingRow is one address-interleaving policy's outcome on one
// benchmark.
type MappingRow struct {
	// Benchmark names the workload; Mapping the policy.
	Benchmark string
	Mapping   dram.AddressMapping
	// RowHitRate is the row-buffer hit fraction.
	RowHitRate float64
	// IPC is the absolute baseline-scheme IPC.
	IPC float64
}

// MappingResult carries the address-mapping ablation.
type MappingResult struct {
	Rows     []MappingRow
	Rendered string
}

// AblationMapping compares the three address-interleaving policies on a
// streaming (libq) and a pointer-chasing (omnetpp) workload: open-page
// row:bank:col wins for streams, and the XOR permutation never loses —
// the reasoning behind the default mapping.
func AblationMapping(s *Suite) (MappingResult, error) {
	jobs, rows, err := mappingJobs(s.opts)
	if err != nil {
		return MappingResult{}, err
	}
	res, err := s.run(jobs)
	if err != nil {
		return MappingResult{}, err
	}
	tb := stats.NewTable("Benchmark", "Mapping", "Row-hit rate", "IPC")
	for i := range rows {
		r := res[i]
		total := r.DRAM.RowHits + r.DRAM.RowMisses
		if total > 0 {
			rows[i].RowHitRate = float64(r.DRAM.RowHits) / float64(total)
		}
		rows[i].IPC = r.IPC
		tb.AddRow(rows[i].Benchmark, rows[i].Mapping.String(), rows[i].RowHitRate, rows[i].IPC)
	}
	return MappingResult{Rows: rows, Rendered: tb.String()}, nil
}

// mappingJobs builds AblationMapping's jobs, each benchmark under every
// mapping, and their unfilled rows.
func mappingJobs(opts Options) ([]runJob, []MappingRow, error) {
	mappings := []dram.AddressMapping{dram.MapRowBankCol, dram.MapBankRowCol, dram.MapRowXORBankCol}
	var jobs []runJob
	var rows []MappingRow
	for _, bench := range []string{"libq", "omnetpp"} {
		prof, err := workload.ByName(bench)
		if err != nil {
			return nil, nil, err
		}
		for _, m := range mappings {
			cfg := opts.SimConfig(sim.SchemeBaseline)
			cfg.DRAM.Mapping = m
			jobs = append(jobs, runJob{prof: prof.Scaled(opts.Scale), cfg: cfg})
			rows = append(rows, MappingRow{Benchmark: bench, Mapping: m})
		}
	}
	return jobs, rows, nil
}

// RefreshPolicyRow compares refresh granularities on one benchmark.
type RefreshPolicyRow struct {
	// Benchmark names the workload; PerBank the policy.
	Benchmark string
	PerBank   bool
	// P99LatencyCPU is the 99th-percentile read latency in CPU cycles.
	P99LatencyCPU float64
	// IPC is the baseline-scheme IPC.
	IPC float64
}

// RefreshPolicyResult carries the all-bank vs per-bank refresh ablation.
type RefreshPolicyResult struct {
	Rows     []RefreshPolicyRow
	Rendered string
}

// AblationRefreshPolicy compares all-bank REF against LPDDR per-bank
// REFpb on memory-bound workloads: per-bank refresh trims the refresh-
// induced tail of the read-latency distribution.
func AblationRefreshPolicy(s *Suite) (RefreshPolicyResult, error) {
	benchmarks := []string{"libq", "Gems"}
	var jobs []runJob
	var rows []RefreshPolicyRow
	for _, bench := range benchmarks {
		prof, err := workload.ByName(bench)
		if err != nil {
			return RefreshPolicyResult{}, err
		}
		for _, perBank := range []bool{false, true} {
			cfg := s.opts.SimConfig(sim.SchemeBaseline)
			cfg.Ctrl.PerBankRefresh = perBank
			jobs = append(jobs, runJob{prof: prof.Scaled(s.opts.Scale), cfg: cfg})
			rows = append(rows, RefreshPolicyRow{Benchmark: bench, PerBank: perBank})
		}
	}
	res, err := s.run(jobs)
	if err != nil {
		return RefreshPolicyResult{}, err
	}
	tb := stats.NewTable("Benchmark", "Refresh", "p99 latency (CPU cyc)", "IPC")
	ratio := float64(dram.DefaultConfig().CPURatio())
	for i := range rows {
		rows[i].P99LatencyCPU = float64(res[i].Ctrl.LatencyPercentile(0.99)) * ratio
		rows[i].IPC = res[i].IPC
		policy := "all-bank"
		if rows[i].PerBank {
			policy = "per-bank"
		}
		tb.AddRow(rows[i].Benchmark, policy, rows[i].P99LatencyCPU, rows[i].IPC)
	}
	return RefreshPolicyResult{Rows: rows, Rendered: tb.String()}, nil
}

// ScrubTable renders the scrub-interval analysis: the reliability cost of
// leaving correctable errors in place across idle periods instead of
// scrubbing at each ECC-Upgrade (reliability.ScrubAnalysis).
func ScrubTable() (string, error) {
	rows, err := reliability.ScrubAnalysis(retention.SlowBitErrorRate, 32)
	if err != nil {
		return "", err
	}
	tb := stats.NewTable("Idle periods unscrubbed", "Effective BER", "ECC-6 system failure")
	for _, k := range []int{1, 2, 4, 8, 16, 32} {
		r := rows[k-1]
		tb.AddRow(k, r.EffectiveBER, r.SystemFailure)
	}
	return tb.String(), nil
}

// SchedulerRow is one scheduling-policy configuration's outcome.
type SchedulerRow struct {
	// Benchmark names the workload; Policy the scheduler variant.
	Benchmark, Policy string
	// RowHitRate and IPC summarize the run.
	RowHitRate, IPC float64
}

// SchedulerResult carries the scheduler-policy ablation.
type SchedulerResult struct {
	Rows     []SchedulerRow
	Rendered string
}

// AblationScheduler compares FR-FCFS/open-page (the baseline), FR-FCFS/
// closed-page, and strict FCFS on a streaming and a pointer-chasing
// workload — the design space of the Memory Scheduling Championship that
// USIMM (the paper's simulator) was built for.
func AblationScheduler(s *Suite) (SchedulerResult, error) {
	type variant struct {
		name   string
		mutate func(*sim.Config)
	}
	variants := []variant{
		{"FR-FCFS/open", func(*sim.Config) {}},
		{"FR-FCFS/closed", func(c *sim.Config) { c.Ctrl.PagePolicy = memctrl.ClosedPage }},
		{"FCFS/open", func(c *sim.Config) { c.Ctrl.FCFS = true }},
	}
	var jobs []runJob
	var rows []SchedulerRow
	for _, bench := range []string{"libq", "omnetpp"} {
		prof, err := workload.ByName(bench)
		if err != nil {
			return SchedulerResult{}, err
		}
		for _, v := range variants {
			cfg := s.opts.SimConfig(sim.SchemeBaseline)
			v.mutate(&cfg)
			jobs = append(jobs, runJob{prof: prof.Scaled(s.opts.Scale), cfg: cfg})
			rows = append(rows, SchedulerRow{Benchmark: bench, Policy: v.name})
		}
	}
	res, err := s.run(jobs)
	if err != nil {
		return SchedulerResult{}, err
	}
	tb := stats.NewTable("Benchmark", "Scheduler", "Row-hit rate", "IPC")
	for i := range rows {
		r := res[i]
		if total := r.DRAM.RowHits + r.DRAM.RowMisses; total > 0 {
			rows[i].RowHitRate = float64(r.DRAM.RowHits) / float64(total)
		}
		rows[i].IPC = r.IPC
		tb.AddRow(rows[i].Benchmark, rows[i].Policy, rows[i].RowHitRate, rows[i].IPC)
	}
	return SchedulerResult{Rows: rows, Rendered: tb.String()}, nil
}

// TempRow is one junction-temperature point.
type TempRow struct {
	// TempC is the junction temperature.
	TempC float64
	// BER is the raw bit error rate at the 1 s refresh period.
	BER float64
	// RequiredECC meets the 1e-6 system bar (+1 soft-error level).
	RequiredECC int
	// FitsBudget reports whether the code fits the 60-bit spare space.
	FitsBudget bool
}

// TempResult carries the temperature sweep.
type TempResult struct {
	Rows     []TempRow
	Rendered string
}

// AblationTemperature sweeps junction temperature at the paper's 1 s
// idle refresh period: retention halves per 10 degC, so a device hot
// from gaming needs a stronger code (or a shorter period) than the
// nominal 45 degC operating point the paper provisions ECC-6 for.
func AblationTemperature() (TempResult, error) {
	model := retention.DefaultModel()
	var out TempResult
	tb := stats.NewTable("Temp (C)", "BER @ 1s", "Required ECC", "Fits 60-bit budget")
	for _, temp := range []float64{25, 35, 45, 55, 65, 85} {
		ber := model.BERAtTemp(time.Second, temp)
		req := 0
		label := "ECC-0"
		switch {
		case ber >= 0.01:
			// Hopeless regime: no per-line code recovers a mostly-dead
			// array; the device must fall back to a shorter period.
			req = reliability.DefaultLineBits
			label = "none fits"
		case ber > 2e-9:
			var err error
			req, err = reliability.RequiredStrength(
				ber, reliability.DefaultLineBits, reliability.DefaultMemoryLines,
				reliability.TargetSystemFailure, 1)
			if err != nil {
				return TempResult{}, err
			}
			label = fmt.Sprintf("ECC-%d", req)
		}
		row := TempRow{TempC: temp, BER: ber, RequiredECC: req, FitsBudget: req <= 6}
		out.Rows = append(out.Rows, row)
		tb.AddRow(temp, ber, label, row.FitsBudget)
	}
	out.Rendered = tb.String()
	return out, nil
}

// PrefetchRow is one prefetcher-configuration outcome.
type PrefetchRow struct {
	// Benchmark names the workload; Prefetch the configuration.
	Benchmark string
	Prefetch  bool
	// IPC and HitRate (prefetch-buffer hits per demand read) summarize
	// the run.
	IPC, HitRate float64
}

// PrefetchResult carries the prefetcher ablation.
type PrefetchResult struct {
	Rows     []PrefetchRow
	Rendered string
}

// AblationPrefetch measures the next-line prefetcher on a streaming and
// a pointer-chasing workload — and, more importantly for this paper,
// confirms that prefetching composes with MECC (the prefetch buffer
// stores raw data + ECC; decode happens at consumption, so the morphable
// policy is unchanged).
func AblationPrefetch(s *Suite) (PrefetchResult, error) {
	var jobs []runJob
	var rows []PrefetchRow
	for _, bench := range []string{"libq", "omnetpp"} {
		prof, err := workload.ByName(bench)
		if err != nil {
			return PrefetchResult{}, err
		}
		for _, pf := range []bool{false, true} {
			cfg := s.opts.SimConfig(sim.SchemeMECC)
			cfg.NextLinePrefetch = pf
			jobs = append(jobs, runJob{prof: prof.Scaled(s.opts.Scale), cfg: cfg})
			rows = append(rows, PrefetchRow{Benchmark: bench, Prefetch: pf})
		}
	}
	res, err := s.run(jobs)
	if err != nil {
		return PrefetchResult{}, err
	}
	tb := stats.NewTable("Benchmark", "Prefetch", "Buffer hit rate", "IPC (MECC)")
	for i := range rows {
		r := res[i]
		if r.Ctrl.ReadsEnqueued+r.PrefetchHits > 0 {
			rows[i].HitRate = float64(r.PrefetchHits) /
				(float64(r.Instructions) * r.MPKI / 1000)
		}
		rows[i].IPC = r.IPC
		tb.AddRow(rows[i].Benchmark, rows[i].Prefetch, rows[i].HitRate, rows[i].IPC)
	}
	return PrefetchResult{Rows: rows, Rendered: tb.String()}, nil
}
