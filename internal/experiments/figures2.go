package experiments

import (
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig11Row is one benchmark's MDT occupancy.
type Fig11Row struct {
	Name string
	// TrackedMB is the memory the 1K-entry MDT marks for ECC-Upgrade.
	TrackedMB float64
	// FootprintMB is the profile's nominal footprint, for reference.
	FootprintMB int
}

// Fig11Result carries the MDT effectiveness study.
type Fig11Result struct {
	Rows []Fig11Row
	// MeanTrackedMB is the average across benchmarks (paper: ≈128 MB,
	// 8x below the 1 GB memory).
	MeanTrackedMB float64
	Rendered      string
}

// Fig11 measures how much memory the MDT marks for upgrade per
// benchmark. MDT occupancy is a pure function of the access stream, so
// this experiment streams addresses straight into the MECC controller
// (full, unscaled footprints) without the timing model — which is what
// lets it run the paper-scale access counts quickly.
func Fig11(s *Suite) (Fig11Result, error) {
	lines := dram.DefaultConfig().TotalLines()
	var out Fig11Result
	tb := stats.NewTable("Benchmark", "MDT tracked (MB)", "Footprint (MB)")
	var sum float64
	for _, p := range workload.All() {
		ctl, _, err := replayMDT(p, core.DefaultConfig(lines), s.opts)
		if err != nil {
			return Fig11Result{}, err
		}
		row := Fig11Row{
			Name:        p.Name,
			TrackedMB:   float64(ctl.MDTTrackedBytes()) / (1 << 20),
			FootprintMB: p.FootprintMB,
		}
		out.Rows = append(out.Rows, row)
		sum += row.TrackedMB
		tb.AddRow(p.Name, row.TrackedMB, p.FootprintMB)
	}
	out.MeanTrackedMB = sum / float64(len(out.Rows))
	tb.AddRow("MEAN", out.MeanTrackedMB, "")
	out.Rendered = tb.String()
	return out, nil
}

// replayMDT streams prof's slice at opts' length and seed, over its
// full footprint, straight into a fresh MECC controller built from mc,
// with no timing model: each record advances the clock by its gap plus
// one cycle. It returns the controller, still active, and the cycle of
// the last access.
func replayMDT(prof workload.Profile, mc core.Config, opts Options) (*core.Controller, uint64, error) {
	ctl, err := core.New(mc)
	if err != nil {
		return nil, 0, err
	}
	if err := ctl.ExitIdle(0); err != nil {
		return nil, 0, err
	}
	gen, err := workload.NewGenerator(prof, mc.TotalLines, opts.Seed)
	if err != nil {
		return nil, 0, err
	}
	src := workload.NewBounded(gen, opts.Instructions())
	now := uint64(0)
	for {
		rec, ok := src.Next()
		if !ok {
			return ctl, now, nil
		}
		now += uint64(rec.Gap) + 1
		if rec.Op == trace.OpWrite {
			err = ctl.OnWrite(rec.LineAddr, now)
		} else {
			_, err = ctl.OnRead(rec.LineAddr, now)
		}
		if err != nil {
			return nil, 0, err
		}
	}
}

// Fig12Row is one decode-latency point.
type Fig12Row struct {
	// DecodeCycles is the ECC-6 decoder latency.
	DecodeCycles int
	// ECC6 and MECC are geomean IPCs normalized to baseline.
	ECC6, MECC float64
}

// Fig12Result carries the decode-latency sensitivity study.
type Fig12Result struct {
	Rows     []Fig12Row
	Rendered string
}

// Fig12 sweeps the strong-decode latency over 15/30/45/60 cycles for
// ECC-6 and MECC (Section V-E).
func Fig12(s *Suite) (Fig12Result, error) {
	base, err := s.Matrix(sim.SchemeBaseline)
	if err != nil {
		return Fig12Result{}, err
	}
	jobs, keys := fig12Jobs(s.opts, workload.All())
	res, err := s.run(jobs)
	if err != nil {
		return Fig12Result{}, err
	}
	norm := make(map[fig12Key]float64, len(keys))
	for i, k := range keys {
		norm[k] = res[i].IPC / base[k.bench][sim.SchemeBaseline].IPC
	}
	var out Fig12Result
	tb := stats.NewTable("Decode cycles", "ECC-6", "MECC")
	for _, lat := range fig12Latencies {
		var e6, me []float64
		for _, p := range workload.All() {
			e6 = append(e6, norm[fig12Key{lat, sim.SchemeECC6, p.Name}])
			me = append(me, norm[fig12Key{lat, sim.SchemeMECC, p.Name}])
		}
		ge, err := stats.Geomean(e6)
		if err != nil {
			return Fig12Result{}, err
		}
		gm, err := stats.Geomean(me)
		if err != nil {
			return Fig12Result{}, err
		}
		out.Rows = append(out.Rows, Fig12Row{DecodeCycles: lat, ECC6: ge, MECC: gm})
		tb.AddRow(lat, ge, gm)
	}
	out.Rendered = tb.String()
	return out, nil
}

// fig12Latencies are the strong-decode latencies Fig 12 sweeps.
var fig12Latencies = []int{15, 30, 45, 60}

// fig12Key names one Fig 12 run.
type fig12Key struct {
	lat   int
	k     sim.SchemeKind
	bench string
}

// fig12Jobs builds Fig 12's jobs over profs and their keys, decode
// latency outermost, then scheme, then benchmark.
func fig12Jobs(opts Options, profs []workload.Profile) ([]runJob, []fig12Key) {
	var jobs []runJob
	var keys []fig12Key
	for _, lat := range fig12Latencies {
		for _, k := range []sim.SchemeKind{sim.SchemeECC6, sim.SchemeMECC} {
			for _, p := range profs {
				cfg := opts.SimConfig(k)
				cfg.StrongDecodeCycles = lat
				jobs = append(jobs, runJob{prof: p.Scaled(opts.Scale), cfg: cfg})
				keys = append(keys, fig12Key{lat, k, p.Name})
			}
		}
	}
	return jobs, keys
}

// Fig13Row is one slice-length point of the transition-time study.
type Fig13Row struct {
	// Instructions is the slice length (paper axis: 0.5..4 billion).
	Instructions uint64
	// SECDED and MECC are cumulative IPCs normalized to baseline at the
	// same instruction count.
	SECDED, MECC float64
}

// Fig13Result carries the warm-up transient study.
type Fig13Result struct {
	Rows     []Fig13Row
	Rendered string
}

// Fig13 measures how MECC's slowdown shrinks as the slice grows: the
// first-touch strong decodes happen early and amortize (Section V-F).
// Checkpoints at 1/8, 1/4, 1/2, 3/4 and the full slice correspond to the
// paper's 0.5/1/2/3/4 billion instructions at scale 1.
func Fig13(s *Suite) (Fig13Result, error) {
	instrs := s.opts.Instructions()
	every := instrs / 8
	if every < 1 {
		every = 1
	}
	var jobs []runJob
	schemes := []sim.SchemeKind{sim.SchemeBaseline, sim.SchemeSECDED, sim.SchemeMECC}
	type key struct {
		k     sim.SchemeKind
		bench string
	}
	var keys []key
	for _, k := range schemes {
		for _, p := range workload.All() {
			cfg := s.opts.SimConfig(k)
			cfg.CheckpointEvery = every
			jobs = append(jobs, runJob{prof: p.Scaled(s.opts.Scale), cfg: cfg})
			keys = append(keys, key{k, p.Name})
		}
	}
	res, err := s.run(jobs)
	if err != nil {
		return Fig13Result{}, err
	}
	byKey := make(map[key]sim.Result, len(keys))
	for i, k := range keys {
		byKey[k] = res[i]
	}
	// Sample checkpoints 1, 2, 4, 6, 8 (of 8) ≈ 0.5B,1B,2B,3B,4B.
	samples := []int{0, 1, 3, 5, 7}
	var out Fig13Result
	tb := stats.NewTable("Instructions", "SECDED", "MECC")
	for _, ci := range samples {
		var nSec, nMECC []float64
		var instrAt uint64
		ok := true
		for _, p := range workload.All() {
			b := byKey[key{sim.SchemeBaseline, p.Name}]
			sc := byKey[key{sim.SchemeSECDED, p.Name}]
			mc := byKey[key{sim.SchemeMECC, p.Name}]
			if ci >= len(b.Checkpoints) || ci >= len(sc.Checkpoints) || ci >= len(mc.Checkpoints) {
				ok = false
				break
			}
			instrAt = b.Checkpoints[ci].Instructions
			nSec = append(nSec, sc.Checkpoints[ci].IPC/b.Checkpoints[ci].IPC)
			nMECC = append(nMECC, mc.Checkpoints[ci].IPC/b.Checkpoints[ci].IPC)
		}
		if !ok {
			continue
		}
		gs, err := stats.Geomean(nSec)
		if err != nil {
			return Fig13Result{}, err
		}
		gm, err := stats.Geomean(nMECC)
		if err != nil {
			return Fig13Result{}, err
		}
		out.Rows = append(out.Rows, Fig13Row{Instructions: instrAt, SECDED: gs, MECC: gm})
		tb.AddRow(int(instrAt), gs, gm)
	}
	out.Rendered = tb.String()
	return out, nil
}

// Fig14Row is one benchmark's SMD behaviour.
type Fig14Row struct {
	Name string
	// DisabledPct is the fraction of active execution time during which
	// ECC-Downgrade stayed disabled.
	DisabledPct float64
	// NormalizedIPC is IPC vs baseline with SMD active.
	NormalizedIPC float64
}

// Fig14Result carries the SMD study.
type Fig14Result struct {
	Rows []Fig14Row
	// NeverEnabled counts benchmarks that kept ECC-Downgrade off for the
	// whole run (the paper reports 7 of 28).
	NeverEnabled int
	// MeanNormalizedIPC is the geomean normalized IPC with SMD (paper:
	// within 2% of baseline).
	MeanNormalizedIPC float64
	Rendered          string
}

// Fig14 runs MECC with SMD enabled (MPKC threshold 2, 64 ms windows) and
// reports the fraction of time ECC-Downgrade remained disabled.
func Fig14(s *Suite) (Fig14Result, error) {
	base, err := s.Matrix(sim.SchemeBaseline)
	if err != nil {
		return Fig14Result{}, err
	}
	var jobs []runJob
	var names []string
	for _, p := range workload.All() {
		cfg := s.opts.SimConfig(sim.SchemeMECC)
		cfg.MECC.SMDEnabled = true
		jobs = append(jobs, runJob{prof: p.Scaled(s.opts.Scale), cfg: cfg})
		names = append(names, p.Name)
	}
	res, err := s.run(jobs)
	if err != nil {
		return Fig14Result{}, err
	}
	var out Fig14Result
	var norm []float64
	tb := stats.NewTable("Benchmark", "Downgrade disabled (%)", "Normalized IPC")
	for i, r := range res {
		pct := 0.0
		if r.MECC != nil && r.MECC.ActiveCycles > 0 {
			pct = float64(r.MECC.DowngradeDisabledCycles) / float64(r.MECC.ActiveCycles) * 100
		}
		n := r.IPC / base[names[i]][sim.SchemeBaseline].IPC
		norm = append(norm, n)
		if pct > 99.5 {
			out.NeverEnabled++
		}
		out.Rows = append(out.Rows, Fig14Row{Name: names[i], DisabledPct: pct, NormalizedIPC: n})
		tb.AddRow(names[i], pct, n)
	}
	gm, err := stats.Geomean(norm)
	if err != nil {
		return Fig14Result{}, err
	}
	out.MeanNormalizedIPC = gm
	tb.AddRow("GEOMEAN", "", gm)
	out.Rendered = tb.String()
	return out, nil
}
