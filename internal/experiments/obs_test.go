package experiments

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// defaultTelemetry builds the recorder paperbench attaches when run
// with default flags: metrics, the flight recorder and a progress
// tracker, no trace log.
func defaultTelemetry() (*obs.Recorder, *obs.EventLog, *obs.Progress) {
	rec := obs.New()
	flight := obs.NewEventLog(obs.FlightKinds, obs.DefaultFlightEvents)
	rec.AddEventLog(flight)
	prog := obs.NewProgress()
	rec.SetProgress(prog)
	return rec, flight, prog
}

// fig7Jobs builds the Fig 7 jobs of the named benchmarks: each under the
// four schemes Fig 7 simulates, at opts' scale and with opts' recorder.
func fig7Jobs(t *testing.T, opts Options, benches ...string) []runJob {
	t.Helper()
	var jobs []runJob
	for _, name := range benches {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []sim.SchemeKind{sim.SchemeBaseline, sim.SchemeSECDED, sim.SchemeECC6, sim.SchemeMECC} {
			jobs = append(jobs, runJob{prof: prof.Scaled(opts.Scale), cfg: opts.SimConfig(k)})
		}
	}
	return jobs
}

// TestProgressCountsInstructions runs 4 jobs at Parallel 2 on one shared
// progress tracker: Done must add up every job's retired instructions
// and Total every job's budget, raised by any final-record overrun so
// Done never exceeds it.
func TestProgressCountsInstructions(t *testing.T) {
	rec, _, prog := defaultTelemetry()
	opts := Options{Scale: 4000, Seed: 1, Parallel: 2, Obs: rec}
	jobs := fig7Jobs(t, opts, "libq")
	res, err := runMany(jobs, opts.parallel())
	if err != nil {
		t.Fatal(err)
	}
	var budget, overrun, retired uint64
	for i, r := range res {
		b := uint64(jobs[i].cfg.Instructions)
		budget += b
		retired += r.Instructions
		if r.Instructions > b {
			overrun += r.Instructions - b
		}
	}
	snap := prog.Snapshot()
	if snap.Done != retired {
		t.Errorf("progress done = %d, want the jobs' retired instructions %d", snap.Done, retired)
	}
	if snap.Total != budget+overrun {
		t.Errorf("progress total = %d, want the jobs' budgets %d plus their overrun %d", snap.Total, budget, overrun)
	}
	if snap.Done > snap.Total {
		t.Errorf("progress done %d exceeds total %d", snap.Done, snap.Total)
	}
}

// TestCountersPublishModelStats pins "one count, two exports": with
// paperbench's default telemetry on a small Fig 7 matrix at Parallel 2,
// every counter published from the model's statistics equals the sum of
// its sim.Result field over the jobs, each histogram counts exactly the
// model events it samples, and the flight window holds the run's spans but
// none of the per-command, per-read or per-tREFI kinds.
func TestCountersPublishModelStats(t *testing.T) {
	rec, flight, _ := defaultTelemetry()
	if rec.Tracing(obs.KindDRAMCmd) || rec.Tracing(obs.KindDecode) || rec.Tracing(obs.KindRefresh) {
		t.Fatal("flight-only recorder traces a per-request kind")
	}
	if !rec.Tracing(obs.KindSpanStart) || !rec.Tracing(obs.KindMECCTransition) {
		t.Fatal("flight-only recorder must trace spans and MECC transitions")
	}
	opts := Options{Scale: 4000, Seed: 1, Parallel: 2, Obs: rec}
	jobs := fig7Jobs(t, opts, "libq", "wrf", "milc")
	smd := opts.SimConfig(sim.SchemeMECC)
	smd.MECC.SMDEnabled = true
	prof, err := workload.ByName("libq")
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, runJob{prof: prof.Scaled(opts.Scale), cfg: smd})
	res, err := runMany(jobs, opts.parallel())
	if err != nil {
		t.Fatal(err)
	}

	all := func(r sim.Result) bool { return true }
	isMECC := func(r sim.Result) bool { return r.MECC != nil }
	for _, c := range []struct {
		name string
		in   func(sim.Result) bool
		get  func(sim.Result) uint64
	}{
		{"dram_act_total", all, func(r sim.Result) uint64 { return r.DRAM.NACT }},
		{"dram_pre_total", all, func(r sim.Result) uint64 { return r.DRAM.NPRE }},
		{"dram_rd_total", all, func(r sim.Result) uint64 { return r.DRAM.NRD }},
		{"dram_wr_total", all, func(r sim.Result) uint64 { return r.DRAM.NWR }},
		{"dram_ref_total", all, func(r sim.Result) uint64 { return r.DRAM.NREF }},
		{"dram_refpb_total", all, func(r sim.Result) uint64 { return r.DRAM.NREFpb }},
		{"dram_self_refresh_pulses_total", all, func(r sim.Result) uint64 { return r.DRAM.NSelfRefreshPulses }},
		{"memctrl_reads_total", all, func(r sim.Result) uint64 { return r.Ctrl.ReadsEnqueued }},
		{"memctrl_writes_total", all, func(r sim.Result) uint64 { return r.Ctrl.WritesEnqueued }},
		{"memctrl_refreshes_total", all, func(r sim.Result) uint64 { return r.Ctrl.RefreshesIssued }},
		{"memctrl_write_drains_total", all, func(r sim.Result) uint64 { return r.Ctrl.WriteDrains }},
		{"mecc_strong_reads_total", isMECC, func(r sim.Result) uint64 { return r.MECC.StrongReads }},
		{"mecc_weak_reads_total", isMECC, func(r sim.Result) uint64 { return r.MECC.WeakReads }},
		{"mecc_downgrades_total", isMECC, func(r sim.Result) uint64 { return r.MECC.Downgrades }},
		{"mecc_sweeps_total", isMECC, func(r sim.Result) uint64 { return r.MECC.Sweeps }},
		{"mecc_upgraded_lines_total", isMECC, func(r sim.Result) uint64 { return r.MECC.UpgradedLines }},
		{"mecc_smd_windows_total", isMECC, func(r sim.Result) uint64 { return r.MECC.SMDWindows }},
		{"mecc_smd_enables_total", isMECC, func(r sim.Result) uint64 { return r.MECC.SMDEnables }},
	} {
		var want uint64
		for _, r := range res {
			if c.in(r) {
				want += c.get(r)
			}
		}
		if got := rec.Registry().Counter(c.name).Value(); got != want {
			t.Errorf("%s = %d, want the jobs' stats sum %d", c.name, got, want)
		}
	}

	// The latency histogram samples every completed read; the decode
	// histogram every demand read (one enqueued read each, with the
	// prefetcher off) at the scheme's decode latency.
	var readsDone, latency, demand, decode uint64
	for i, r := range res {
		cfg := jobs[i].cfg
		readsDone += r.Ctrl.ReadsDone
		latency += r.Ctrl.TotalReadLatency
		demand += r.Ctrl.ReadsEnqueued
		switch r.Scheme {
		case sim.SchemeSECDED:
			decode += r.Ctrl.ReadsEnqueued * uint64(cfg.WeakDecodeCycles)
		case sim.SchemeECC6:
			decode += r.Ctrl.ReadsEnqueued * uint64(cfg.StrongDecodeCycles)
		case sim.SchemeMECC:
			decode += r.MECC.StrongReads*uint64(cfg.StrongDecodeCycles) + r.MECC.WeakReads*uint64(cfg.WeakDecodeCycles)
		}
	}
	if h := rec.Histogram("memctrl_read_latency_dram_cycles"); h.Count() != readsDone || h.Sum() != latency {
		t.Errorf("read-latency histogram count %d sum %d, want %d reads totalling %d cycles", h.Count(), h.Sum(), readsDone, latency)
	}
	if h := rec.Histogram("sim_decode_cycles"); h.Count() != demand || h.Sum() != decode {
		t.Errorf("decode histogram count %d sum %d, want %d demand reads totalling %d cycles", h.Count(), h.Sum(), demand, decode)
	}

	spans := map[string]int{}
	for _, e := range flight.Events() {
		switch e.Kind {
		case obs.KindDRAMCmd, obs.KindDecode, obs.KindRefresh:
			t.Fatalf("flight window holds a %s event", e.Kind)
		case obs.KindSpanStart:
			spans[e.Name]++
		}
	}
	if spans["run"] != len(jobs) || spans["active"] != len(jobs) {
		t.Errorf("flight spans %v, want a run and an active span per job (%d)", spans, len(jobs))
	}
}

// TestRunsLeaveGaugesAtRest: runs that share a recorder set its state
// gauges (refresh shift, queue depths, downgrade state) in whatever
// order they happen to end, so each returns them to rest when it ends,
// and a run's final exposition cannot depend on the worker count.
// Daemon's two runs, split over two workers, used to leave
// mecc_downgrade_on at 0 or 1 by which of them ended last, and
// memctrl_refresh_shift_bits at 4.
func TestRunsLeaveGaugesAtRest(t *testing.T) {
	rec := obs.New()
	s, err := NewSuite(Options{Scale: matrixScale, Seed: 1, Parallel: 2, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Daemon(s); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mecc_downgrade_on", "memctrl_refresh_shift_bits", "memctrl_read_queue_depth", "memctrl_write_queue_depth"} {
		if v := rec.Registry().Gauge(name).Value(); v != 0 {
			t.Errorf("%s = %g after the runs ended, want 0", name, v)
		}
	}
}
