package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/ecc"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// phoneWeekSpec is the phone-week scenario: one day of eleven phase
// entries, repeated for seven days.
//
//go:embed workloads/phone-week.json
var phoneWeekSpec []byte

// integrityBER is the stress bit error rate of the integrity workload:
// about 0.58 injected errors per 576-bit line, so 44% of lines carry an
// error for the strong decoder to locate. At 3e-3 (1.7 errors per
// line) seven or more errors, beyond the code's six, are common enough
// that a rare miscorrection fails a round: 6 of 400 seeds at 150000
// trials. At 1e-3 none of 400 seeds had one.
const integrityBER = 1e-3

// fig7Schemes are the schemes experiments.Fig7 simulates, in the order
// Suite.Matrix runs them for each benchmark.
var fig7Schemes = []sim.SchemeKind{sim.SchemeBaseline, sim.SchemeSECDED, sim.SchemeECC6, sim.SchemeMECC}

// childConfig is what one library child runs.
type childConfig struct {
	workload string
	seed     int64
	procs    int
	size     sizes
	// traced selects the traced form of the timed call: fig7-lib replays
	// its jobs one at a time with spans.
	traced bool
}

// childResult is the last line a child prints on standard output.
type childResult struct {
	// Digest is the SHA-256 of the round's simulated output.
	Digest string `json:"digest"`
	// Counts holds per-layer counts and model outputs by metric name.
	Counts map[string]float64 `json:"counts"`
	// AllocMB is the heap the timed call allocated.
	AllocMB float64 `json:"alloc_mb"`
	// PeakRSSMB is the child's own peak resident set size.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Jobs are the spans of a traced fig7-lib replay, in job order.
	Jobs []replayJob `json:"jobs,omitempty"`
}

// replayJob is one Fig-7 job replayed in three spans.
type replayJob struct {
	Records int `json:"records"`
	// GenS times generating the job's record stream, SetupS
	// sim.NewRunnerWithSource, and RunS Runner.Run.
	GenS   float64 `json:"gen_s"`
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`
}

// libSetups builds each in-process workload and returns its timed call.
var libSetups = map[string]func(childConfig) (func() (childResult, error), error){
	"fig7-lib":   setupFig7Lib,
	"phone-week": setupPhoneWeek,
	"integrity":  setupIntegrity,
}

// runChild is one library round in its own process: set up, then (unless
// -setup-only) run the timed call, under a CPU profile when asked, and
// print its childResult.
func runChild(args []string) error {
	fs := flag.NewFlagSet("bench child", flag.ContinueOnError)
	var c childConfig
	fs.StringVar(&c.workload, "workload", "", "library workload to run")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed")
	fs.IntVar(&c.procs, "procs", 1, "simulations run at once (fig7-lib)")
	smoke := fs.Bool("smoke", false, "toy sizes")
	setupOnly := fs.Bool("setup-only", false, "set up and exit")
	cpuProfile := fs.String("cpuprofile", "", "profile the timed call into this file and run its traced form")
	if err := fs.Parse(args); err != nil {
		return err
	}
	setup, ok := libSetups[c.workload]
	if !ok {
		return fmt.Errorf("unknown library workload %q", c.workload)
	}
	c.size = sizesFor(*smoke)
	c.traced = *cpuProfile != ""
	call, err := setup(c)
	if err != nil || *setupOnly {
		return err
	}

	var f *os.File
	if c.traced {
		if f, err = os.Create(*cpuProfile); err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := call()
	runtime.ReadMemStats(&after)
	if c.traced {
		pprof.StopCPUProfile()
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	res.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	if res.PeakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// peakRSSMB returns this process's peak resident set size, VmHWM. The
// parent cannot take it from the child's rusage: os/exec starts a child
// with vfork, so the child's Maxrss counts the parent's own peak too,
// and the benchmark's peak (up to 9 MB, rising over a run) exceeds the
// integrity child's (6 MB).
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func setupFig7Lib(c childConfig) (func() (childResult, error), error) {
	opts := experiments.Options{Scale: c.size.libScale, Seed: c.seed, Parallel: c.procs}
	suite, err := experiments.NewSuite(opts)
	if err != nil {
		return nil, err
	}
	if c.traced {
		return func() (childResult, error) {
			results, jobs, err := replayFig7(opts)
			if err != nil {
				return childResult{}, err
			}
			res, err := fig7Summary(results)
			res.Jobs = jobs
			return res, err
		}, nil
	}
	return func() (childResult, error) {
		if _, err := experiments.Fig7(suite); err != nil {
			return childResult{}, err
		}
		// Served from the suite's cache: Fig7 has just run every job.
		m, err := suite.Matrix(fig7Schemes...)
		if err != nil {
			return childResult{}, err
		}
		var results []sim.Result
		for _, p := range workload.All() {
			for _, k := range fig7Schemes {
				results = append(results, m[p.Name][k])
			}
		}
		return fig7Summary(results)
	}, nil
}

// fig7Summary digests the Fig-7 results, given in workload.All() x
// fig7Schemes order, and counts their layers.
func fig7Summary(results []sim.Result) (childResult, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range results {
		if err := enc.Encode(r); err != nil {
			return childResult{}, err
		}
	}
	// Each benchmark's group opens with its baseline run and closes with
	// its MECC run; the ALL row is the geomean of their IPC ratios.
	var norm []float64
	for i := 0; i+len(fig7Schemes) <= len(results); i += len(fig7Schemes) {
		norm = append(norm, results[i+len(fig7Schemes)-1].IPC/results[i].IPC)
	}
	ipc, err := stats.Geomean(norm)
	if err != nil {
		return childResult{}, err
	}
	counts := simCounts(results)
	counts["sim.mecc_norm_ipc"] = ipc
	return childResult{Digest: digest(buf.Bytes()), Counts: counts}, nil
}

// replayFig7 runs the Fig-7 jobs one after another, timing each in three
// spans: generating the record stream the run will consume, building the
// runner over it, and running it.
func replayFig7(opts experiments.Options) ([]sim.Result, []replayJob, error) {
	var results []sim.Result
	var jobs []replayJob
	for _, p := range workload.All() {
		prof := p.Scaled(opts.Scale)
		for _, k := range fig7Schemes {
			cfg := jobConfig(opts, k)
			t0 := time.Now()
			recs, err := jobStream(prof, cfg)
			if err != nil {
				return nil, nil, err
			}
			t1 := time.Now()
			r, err := sim.NewRunnerWithSource(prof, trace.NewSliceSource(recs), cfg)
			if err != nil {
				return nil, nil, err
			}
			t2 := time.Now()
			res, err := r.Run()
			if err != nil {
				return nil, nil, err
			}
			t3 := time.Now()
			results = append(results, res)
			jobs = append(jobs, replayJob{
				Records: len(recs),
				GenS:    t1.Sub(t0).Seconds(),
				SetupS:  t2.Sub(t1).Seconds(),
				RunS:    t3.Sub(t2).Seconds(),
			})
		}
	}
	return results, jobs, nil
}

// jobConfig repeats the config experiments.Options gives one Fig-7 job
// with no recorder: the default system, the seed, and the SMD window
// divided by the scale.
func jobConfig(opts experiments.Options, k sim.SchemeKind) sim.Config {
	cfg := sim.DefaultConfig(k, opts.Instructions())
	cfg.Seed = opts.Seed
	cfg.MECC.SMDWindowCycles = max(cfg.MECC.SMDWindowCycles/uint64(opts.Scale), 1)
	return cfg
}

// jobStream generates exactly the records a run of cfg consumes: the
// run loop takes records until their instructions, each gap plus one,
// cover the budget.
func jobStream(prof workload.Profile, cfg sim.Config) ([]trace.Record, error) {
	gen, err := workload.NewGenerator(prof, cfg.DRAM.TotalLines(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	var recs []trace.Record
	for left := cfg.Instructions; left > 0; {
		rec, _ := gen.Next() // the generator never ends
		recs = append(recs, rec)
		left -= int64(rec.Gap) + 1
	}
	return recs, nil
}

func setupPhoneWeek(c childConfig) (func() (childResult, error), error) {
	spec, err := scenario.Parse(phoneWeekSpec)
	if err != nil {
		return nil, err
	}
	spec.Phases = spec.Phases[:min(len(spec.Phases), c.size.phonePhases)]
	spec.Seed = c.seed
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return func() (childResult, error) {
		out, err := scenario.Run(spec, scenario.Options{})
		if err != nil {
			return childResult{}, err
		}
		if !out.Passed {
			var failed []string
			for _, inv := range out.Invariants {
				if !inv.OK {
					failed = append(failed, inv.Desc+": "+inv.Detail)
				}
			}
			return childResult{}, fmt.Errorf("phone-week failed: %s", strings.Join(failed, "; "))
		}
		var buf bytes.Buffer
		if err := scenario.WriteJSONL(&buf, []*scenario.Outcome{out}); err != nil {
			return childResult{}, err
		}
		counts := simCounts([]sim.Result{out.Result})
		counts["scenario.phases"] = float64(len(out.Phases))
		return childResult{Digest: digest(buf.Bytes()), Counts: counts}, nil
	}, nil
}

func setupIntegrity(c childConfig) (func() (childResult, error), error) {
	// Build the codec the call builds, so set-up covers its tables.
	if _, err := ecc.NewDefaultMorphable(); err != nil {
		return nil, err
	}
	trials := c.size.integrityTrials
	return func() (childResult, error) {
		res, err := experiments.Integrity(trials, integrityBER, c.seed)
		if err != nil {
			return childResult{}, err
		}
		if res.SilentCorruptions > 0 {
			return childResult{}, errors.New("integrity: silent corruptions")
		}
		data, err := json.Marshal(res)
		if err != nil {
			return childResult{}, err
		}
		return childResult{Digest: digest(data), Counts: map[string]float64{
			"bch.lines":                  float64(2 * trials),
			"bch.detected_uncorrectable": float64(res.StrongDetected),
			"retention.injected_errors":  float64(res.InjectedErrors),
		}}, nil
	}, nil
}

// simCounts sums the per-layer counts of simulation results; the core
// counts and the MECC energy come from the MECC runs alone.
func simCounts(results []sim.Result) map[string]float64 {
	var instr, req, latency, readsDone, drains, cmds, hits, accesses, pulses float64
	var reads, strong, downgrades, upgraded, sweeps, windows, enables, energy float64
	for _, r := range results {
		instr += float64(r.Instructions)
		c := r.Ctrl
		req += float64(c.ReadsEnqueued + c.WritesEnqueued)
		latency += float64(c.TotalReadLatency)
		readsDone += float64(c.ReadsDone)
		drains += float64(c.WriteDrains)
		d := r.DRAM
		cmds += float64(d.NACT + d.NPRE + d.NRD + d.NWR + d.NREF + d.NREFpb)
		hits += float64(d.RowHits)
		accesses += float64(d.RowHits + d.RowMisses)
		pulses += float64(d.NSelfRefreshPulses)
		if m := r.MECC; m != nil {
			reads += float64(m.StrongReads + m.WeakReads)
			strong += float64(m.StrongReads)
			downgrades += float64(m.Downgrades)
			upgraded += float64(m.UpgradedLines)
			sweeps += float64(m.Sweeps)
			windows += float64(m.SMDWindows)
			enables += float64(m.SMDEnables)
			energy += r.TotalEnergyJ()
		}
	}
	return map[string]float64{
		"sim.instructions":                instr,
		"sim.mecc_energy_mj":              energy * 1e3,
		"core.reads":                      reads,
		"core.strong_read_ratio":          ratio(strong, reads),
		"core.downgrades":                 downgrades,
		"core.upgraded_lines":             upgraded,
		"core.sweeps":                     sweeps,
		"core.smd_enable_ratio":           ratio(enables, windows),
		"memctrl.requests":                req,
		"memctrl.avg_read_latency_cycles": ratio(latency, readsDone),
		"memctrl.write_drains":            drains,
		"dram.commands":                   cmds,
		"dram.row_hit_ratio":              ratio(hits, accesses),
		"dram.self_refresh_pulses":        pulses,
	}
}
