package sim

import (
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/obs"
)

// modelStats is one snapshot of the model statistics the runner
// publishes as registry counters.
type modelStats struct {
	dram dram.Stats
	ctl  memctrl.Stats
	mecc core.Stats
}

// statCounter maps a registry counter to its twin field in the model's
// own statistics. The hot paths count only into those statistics; the
// runner adds each field's growth to the shared counter on its publish
// cadence, so one count feeds both Result and the metrics exports.
type statCounter struct {
	name string
	// mecc marks counters registered only under SchemeMECC.
	mecc bool
	get  func(*modelStats) uint64
}

// statCounters is the whole stats → counter mapping.
var statCounters = [...]statCounter{
	{"dram_act_total", false, func(s *modelStats) uint64 { return s.dram.NACT }},
	{"dram_pre_total", false, func(s *modelStats) uint64 { return s.dram.NPRE }},
	{"dram_rd_total", false, func(s *modelStats) uint64 { return s.dram.NRD }},
	{"dram_wr_total", false, func(s *modelStats) uint64 { return s.dram.NWR }},
	{"dram_ref_total", false, func(s *modelStats) uint64 { return s.dram.NREF }},
	{"dram_refpb_total", false, func(s *modelStats) uint64 { return s.dram.NREFpb }},
	{"dram_self_refresh_pulses_total", false, func(s *modelStats) uint64 { return s.dram.NSelfRefreshPulses }},
	{"memctrl_reads_total", false, func(s *modelStats) uint64 { return s.ctl.ReadsEnqueued }},
	{"memctrl_writes_total", false, func(s *modelStats) uint64 { return s.ctl.WritesEnqueued }},
	{"memctrl_refreshes_total", false, func(s *modelStats) uint64 { return s.ctl.RefreshesIssued }},
	{"memctrl_write_drains_total", false, func(s *modelStats) uint64 { return s.ctl.WriteDrains }},
	{"mecc_strong_reads_total", true, func(s *modelStats) uint64 { return s.mecc.StrongReads }},
	{"mecc_weak_reads_total", true, func(s *modelStats) uint64 { return s.mecc.WeakReads }},
	{"mecc_downgrades_total", true, func(s *modelStats) uint64 { return s.mecc.Downgrades }},
	{"mecc_sweeps_total", true, func(s *modelStats) uint64 { return s.mecc.Sweeps }},
	{"mecc_upgraded_lines_total", true, func(s *modelStats) uint64 { return s.mecc.UpgradedLines }},
	{"mecc_smd_windows_total", true, func(s *modelStats) uint64 { return s.mecc.SMDWindows }},
	{"mecc_smd_enables_total", true, func(s *modelStats) uint64 { return s.mecc.SMDEnables }},
}

// attachObserver wires the runner and every layer below it to the
// config's recorder. A nil recorder leaves all handles nil, which keeps
// the hot paths on their zero-allocation no-op branches.
func (r *Runner) attachObserver() {
	rec := r.cfg.Obs
	r.obs = rec
	r.hDecode = rec.Histogram("sim_decode_cycles").Local()
	r.prog = rec.Progress()
	r.ch.SetObserver(rec)
	r.ctl.SetObserver(rec)
	if rec != nil {
		mecc := r.sch.mecc() != nil
		for i, sc := range statCounters {
			if !sc.mecc || mecc {
				r.statCtrs[i] = rec.Counter(sc.name)
			}
		}
	}
	// The run-root span anchors the phase hierarchy (run → active/idle →
	// sweep) in the CPU-cycle clock domain; nil when not tracing. An
	// experiment-harness job span may claim it as a child.
	r.runSpan = rec.StartSpanUnder("run", r.cfg.SpanParent, 0)
}

// publishObs brings the shared telemetry up to date with the runner:
// the growth of every statCounters field since the last publish, the
// buffered decode and read-latency samples, the controller's sampled
// state, and progress (simulated time, quantum, retired instructions).
// The runner calls it every 1024 trace records, at the end of each
// active segment, at idle entry and wake-up, and in result(), so live
// scrapes lag by at most 1024 records and final totals are exact.
func (r *Runner) publishObs() {
	if r.obs == nil {
		return
	}
	cur := modelStats{dram: r.ch.Stats(), ctl: r.ctl.Stats()}
	if m := r.sch.mecc(); m != nil {
		cur.mecc = m.Stats()
	}
	for i, c := range r.statCtrs {
		get := statCounters[i].get
		c.Add(grown(get(&cur), get(&r.published)))
	}
	r.published = cur
	r.hDecode.Drain()
	r.ctl.PublishObs()
	r.prog.SetSimTime(r.cpu.Now())
	if s := r.obs.Sampler(); s != nil && s.Quantum() > 0 {
		r.prog.SetQuantum(r.cpu.Now() / s.Quantum())
	}
	retired := r.cpu.Retired()
	r.prog.AddDone(grown(retired, r.publishedRetired))
	r.publishedRetired = retired
}

// grown returns cur-last for a cumulative statistic, or 0 if it moved
// backwards, so a published counter never wraps.
func grown(cur, last uint64) uint64 {
	if cur < last {
		return 0
	}
	return cur - last
}

// noteDecode accounts one demand read's ECC decode latency (CPU cycles)
// in the sim_decode_cycles histogram and, when traced, as a KindDecode
// event stamped with the CPU clock.
func (r *Runner) noteDecode(decodeCycles int) {
	if r.obs == nil {
		return
	}
	r.hDecode.Observe(uint64(decodeCycles))
	if r.obs.Tracing(obs.KindDecode) {
		// ECC-6 always decodes strong; MECC decodes strong exactly when
		// the scheme charged the strong latency.
		strong := r.cfg.Scheme == SchemeECC6 ||
			(r.cfg.Scheme == SchemeMECC && decodeCycles == r.cfg.StrongDecodeCycles)
		r.obs.Emit(obs.Event{T: r.cpu.Now(), Kind: obs.KindDecode, Cycles: uint64(decodeCycles), Strong: strong})
	}
}

// RegisterProbes attaches the standard per-quantum time series to a
// sampler: memory traffic and refresh counts (differenced per quantum),
// MECC read-mode counts when the scheme is MECC, and the instantaneous
// IPC and downgrade-window gauges. The count probes read the runner's
// own controller and MECC statistics, which are current at every
// sampler tick (the shared registry counters lag by up to 1024 trace
// records). Call after NewRunner and before Run; the sampler is ticked
// from the run loop on the CPU clock.
func (r *Runner) RegisterProbes(s *obs.Sampler) {
	if s == nil || r.obs == nil {
		return
	}
	s.AddCounterProbe("dram_reads", func() uint64 { return r.ctl.Stats().ReadsEnqueued })
	s.AddCounterProbe("dram_writes", func() uint64 { return r.ctl.Stats().WritesEnqueued })
	s.AddCounterProbe("refreshes", func() uint64 { return r.ctl.Stats().RefreshesIssued })
	if m := r.sch.mecc(); m != nil {
		s.AddCounterProbe("strong_reads", func() uint64 { return m.Stats().StrongReads })
		s.AddCounterProbe("weak_reads", func() uint64 { return m.Stats().WeakReads })
		s.AddCounterProbe("downgrades", func() uint64 { return m.Stats().Downgrades })
		s.AddGaugeProbe("slow_refresh", func() float64 {
			if r.sch.refreshShift() > 0 {
				return 1
			}
			return 0
		})
	}
	s.AddGaugeProbe("ipc", func() float64 { return r.cpu.IPC() })
}
