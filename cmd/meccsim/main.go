// Command meccsim runs one benchmark under one error-protection scheme
// and prints the full figure-of-merit report.
//
// Usage:
//
//	meccsim -bench libq -scheme mecc [-scale 400] [-seed 1]
//	        [-declat 30] [-smd] [-no-mdt] [-checkpoints 0]
package main

import (
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/batch"
	"repro/internal/bch"
	"repro/internal/checker"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/obs/httpserv"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// openOut opens an output sink; "-" is stdout (whose closer is a no-op).
func openOut(path string) (io.Writer, func() error, error) {
	if path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// writeMetrics dumps the registry to path — CSV when the name ends in
// .csv, Prometheus text exposition otherwise.
func writeMetrics(reg *obs.Registry, path string) error {
	w, closeFn, err := openOut(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = reg.WriteCSV(w)
	} else {
		err = reg.WriteProm(w)
	}
	if cerr := closeFn(); err == nil {
		err = cerr
	}
	return err
}

// openTrace opens a trace file as a streaming source; the returned
// closer releases the file once the run completes.
func openTrace(path, format string) (trace.Source, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("open trace: %w", err)
	}
	closer := func() {
		if cerr := f.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "meccsim: close trace:", cerr)
		}
	}
	var reader io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			closer()
			return nil, nil, fmt.Errorf("open gzip trace: %w", err)
		}
		reader = zr
	}
	switch format {
	case "text":
		recs, err := trace.ReadText(reader)
		if err != nil {
			closer()
			return nil, nil, err
		}
		return trace.NewSliceSource(recs), closer, nil
	case "bin":
		br, err := trace.NewBinaryReader(reader)
		if err != nil {
			closer()
			return nil, nil, err
		}
		return br, closer, nil
	default:
		closer()
		return nil, nil, fmt.Errorf("unknown trace format %q", format)
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "meccsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		bench       = flag.String("bench", "libq", "benchmark name (see -list)")
		schemeName  = flag.String("scheme", "mecc", "baseline | secded | ecc6 | mecc")
		scale       = flag.Int("scale", 400, "divide the paper's 4B-instruction slice")
		seed        = flag.Int64("seed", 1, "workload seed")
		decLat      = flag.Int("declat", 30, "ECC-6 decode latency in CPU cycles")
		smd         = flag.Bool("smd", false, "enable Selective Memory Downgrade")
		noMDT       = flag.Bool("no-mdt", false, "disable Memory Downgrade Tracking")
		checkpoints = flag.Int64("checkpoints", 0, "record IPC every N instructions")
		list        = flag.Bool("list", false, "list benchmarks and exit")
		asJSON      = flag.Bool("json", false, "emit the result as JSON instead of text")
		traceFile   = flag.String("trace", "", "replay this trace file instead of the synthetic generator (text or binary per -trace-format)")
		traceFormat = flag.String("trace-format", "text", "text | bin")
		ranks       = flag.Int("ranks", 1, "DRAM ranks on the channel")
		mapping     = flag.String("mapping", "row-bank-col", "address interleave: row-bank-col | bank-row-col | xor")
		closedPage  = flag.Bool("closed-page", false, "use the closed-page row policy")
		fcfs        = flag.Bool("fcfs", false, "strict FCFS scheduling (disable row-hit-first)")
		perBankRef  = flag.Bool("per-bank-refresh", false, "use LPDDR per-bank refresh (REFpb)")
		traceOut    = flag.String("trace-out", "", "write a JSONL event trace to this file (- for stdout)")
		traceEvents = flag.String("trace-events", "all", "event kinds to trace: all, or a comma list (dram_cmd,refresh,mecc_transition,smd_enable,...)")
		metricsOut  = flag.String("metrics-out", "", "write run metrics to this file (- for stdout; .csv selects CSV, otherwise Prometheus text)")
		timeline    = flag.Bool("timeline", false, "render an ASCII run timeline after the report: SMD intervals from the flight recorder, exact per-kind counts of the -trace-events kinds (needs -flight > 0)")
		check       = flag.Bool("check", false, "attach run-time invariant checkers; violations fail the run")
		serve       = flag.String("serve", "", "serve /metrics, /healthz, /progress and /debug/pprof on this address while running (e.g. :9090)")
		flightN     = flag.Int("flight", obs.DefaultFlightEvents, "flight-recorder window in events (0 disables); it keeps the newest events of every kind except dram_cmd, decode and refresh")
		flightOut   = flag.String("flight-out", "", "dump the flight recorder to this file at exit and on incident (- for stdout; default incidents go to stderr)")
		linger      = flag.Duration("linger", 0, "keep the obs server up this long after the run completes")
	)
	flag.Parse()

	if *list {
		for _, n := range workload.Names() {
			p, err := workload.ByName(n)
			if err != nil {
				return err
			}
			fmt.Printf("%-10s %-10s MPKI %5.1f  footprint %4d MB\n", n, p.Class(), p.MPKI, p.FootprintMB)
		}
		for _, p := range workload.Mobile() {
			fmt.Printf("%-10s %-10s MPKI %5.1f  footprint %4d MB (mobile)\n", p.Name, p.Class(), p.MPKI, p.FootprintMB)
		}
		return nil
	}
	opts := experiments.Options{Scale: *scale, Seed: *seed}
	if err := opts.Validate(); err != nil {
		return err
	}
	if *decLat < 0 {
		return fmt.Errorf("%w: -declat %d, want 0 or more cycles", sim.ErrBadDuration, *decLat)
	}
	if *flightN < 0 {
		return fmt.Errorf("%w: -flight %d, want 0 (off) or a window of events", experiments.ErrBadOptions, *flightN)
	}
	if *timeline && *flightN <= 0 {
		return fmt.Errorf("-timeline draws from the flight recorder: it needs -flight > 0")
	}
	kind, err := sim.ParseScheme(*schemeName)
	if err != nil {
		return err
	}
	prof, err := workload.ByName(*bench)
	if err != nil {
		if prof, err = workload.MobileByName(*bench); err != nil {
			return err
		}
	}
	cfg := opts.SimConfig(kind)
	cfg.StrongDecodeCycles = *decLat
	cfg.DRAM.Ranks = *ranks
	switch *mapping {
	case "row-bank-col":
		cfg.DRAM.Mapping = dram.MapRowBankCol
	case "bank-row-col":
		cfg.DRAM.Mapping = dram.MapBankRowCol
	case "xor":
		cfg.DRAM.Mapping = dram.MapRowXORBankCol
	default:
		return fmt.Errorf("unknown mapping %q", *mapping)
	}
	if *closedPage {
		cfg.Ctrl.PagePolicy = memctrl.ClosedPage
	}
	cfg.Ctrl.FCFS = *fcfs
	cfg.Ctrl.PerBankRefresh = *perBankRef
	cfg.MECC.SMDEnabled = *smd
	cfg.MECC.MDTEnabled = !*noMDT
	cfg.CheckpointEvery = *checkpoints

	// Telemetry. The flight recorder is on by default. It keeps only
	// the low-rate kinds (obs.FlightKinds: spans, phase transitions,
	// sweeps, SMD decisions, MDT marks), so the per-command and per-read
	// emit sites stay behind a false Tracing check, the counters are
	// published from the model's own statistics every 1024 trace
	// records, and the default configuration runs at nil-recorder speed
	// with the whole run's phase history ready to dump when something
	// breaks. It is the only log that retains events: the trace log of
	// -trace-out / -timeline streams and counts. Passing -flight 0 with
	// no other telemetry flag keeps cfg.Obs nil.
	var (
		elog    *obs.EventLog
		sampler *obs.Sampler
		flight  *obs.EventLog
		prog    *obs.Progress
	)
	if *traceOut != "" || *metricsOut != "" || *timeline || *serve != "" || *flightN > 0 {
		rec := obs.New()
		if *flightN > 0 {
			flight = obs.NewEventLog(obs.FlightKinds, *flightN)
			rec.AddEventLog(flight)
		}
		prog = obs.NewProgress()
		prog.SetWork(0, uint64(cfg.Instructions))
		rec.SetProgress(prog)
		if *traceOut != "" || *timeline {
			mask, err := obs.ParseKindMask(*traceEvents)
			if err != nil {
				return err
			}
			elog = obs.NewEventLog(mask, 0)
			if *traceOut != "" {
				w, closeFn, err := openOut(*traceOut)
				if err != nil {
					return err
				}
				defer func() {
					if cerr := closeFn(); cerr != nil {
						fmt.Fprintln(os.Stderr, "meccsim: close trace-out:", cerr)
					}
				}()
				elog.SetStream(w)
			}
			rec.AddEventLog(elog)
		}
		if *timeline {
			var err error
			if sampler, err = obs.NewSampler(cfg.MECC.SMDWindowCycles); err != nil {
				return err
			}
			rec.SetSampler(sampler)
		}
		bch.SetObserver(rec)
		defer bch.SetObserver(nil)
		batch.SetObserver(rec)
		defer batch.SetObserver(nil)
		cfg.Obs = rec
	}

	// dumpFlight writes the flight window once — on the first of: checker
	// invariant fire, panic in the run, SIGQUIT, or (when -flight-out is
	// set) normal exit. Incidents go to -flight-out when set, stderr
	// otherwise.
	dumpFlight := newFlightDumper("meccsim", flight, *flightOut)
	if flight != nil {
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			<-quit
			dumpFlight("SIGQUIT")
			os.Exit(2)
		}()
		defer func() {
			if p := recover(); p != nil {
				dumpFlight("panic")
				panic(p)
			}
			if *flightOut != "" {
				dumpFlight("exit")
			}
		}()
	}

	if *check {
		cfg.Check = checker.NewSuite()
		cfg.Check.SetOnViolation(func(v checker.Violation) {
			dumpFlight("invariant " + v.Invariant)
		})
	}

	var srv *httpserv.Server
	if *serve != "" {
		srv = httpserv.New(httpserv.Config{
			Registry: cfg.Obs.Registry(),
			Progress: prog,
			Flight:   flight,
		})
		addr, err := srv.Start(*serve)
		if err != nil {
			return fmt.Errorf("obs server: %w", err)
		}
		defer func() {
			if cerr := srv.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "meccsim: close obs server:", cerr)
			}
		}()
		fmt.Fprintf(os.Stderr, "meccsim: obs server on http://%s (/metrics /healthz /progress /flight /debug/pprof)\n", addr)
		// Registered after the Close defer so it runs first: hold the
		// server up for late scrapes, then tear it down.
		defer func() {
			if *linger > 0 {
				fmt.Fprintf(os.Stderr, "meccsim: obs server lingering %s on http://%s\n", *linger, addr)
				time.Sleep(*linger)
			}
		}()
	}

	var res sim.Result
	var runner *sim.Runner
	if *traceFile != "" {
		src, closer, err := openTrace(*traceFile, *traceFormat)
		if err != nil {
			return err
		}
		defer closer()
		if runner, err = sim.NewRunnerWithSource(prof.Scaled(*scale), src, cfg); err != nil {
			return err
		}
	} else if runner, err = sim.NewRunner(prof.Scaled(*scale), cfg); err != nil {
		return err
	}
	runner.RegisterProbes(sampler)
	if res, err = runner.Run(); err != nil {
		return err
	}
	if cfg.Check != nil {
		for _, v := range cfg.Check.Violations() {
			fmt.Fprintln(os.Stderr, "meccsim: violation:", v)
		}
		if err := cfg.Check.Err(); err != nil {
			return err
		}
	}
	if cfg.Obs != nil {
		if err := cfg.Obs.Flush(); err != nil {
			return fmt.Errorf("flush trace: %w", err)
		}
		if *metricsOut != "" {
			if err := writeMetrics(cfg.Obs.Registry(), *metricsOut); err != nil {
				return fmt.Errorf("write metrics: %w", err)
			}
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
		return renderTimeline(*timeline, sampler, flight, elog)
	}

	fmt.Printf("benchmark        %s (%s)\n", res.Benchmark, prof.Class())
	fmt.Printf("scheme           %s (strong decode %d cycles)\n", res.Scheme, *decLat)
	fmt.Printf("instructions     %d (scale 1/%d)\n", res.Instructions, *scale)
	fmt.Printf("cycles           %d\n", res.Cycles)
	fmt.Printf("IPC              %.4f\n", res.IPC)
	fmt.Printf("MPKI             %.2f\n", res.MPKI)
	fmt.Printf("avg read latency %.1f CPU cycles (excl. decode)\n", res.AvgReadLatencyCPU)
	ratio := cfg.DRAM.CPURatio()
	fmt.Printf("read latency     p50 <= %d, p99 <= %d CPU cycles\n",
		res.Ctrl.LatencyPercentile(0.50)*uint64(ratio),
		res.Ctrl.LatencyPercentile(0.99)*uint64(ratio))
	fmt.Printf("mem stall        %.1f%% of cycles\n", float64(res.MemStallCycles)/float64(res.Cycles)*100)
	hits, misses := res.DRAM.RowHits, res.DRAM.RowMisses
	if hits+misses > 0 {
		fmt.Printf("row-buffer hits  %.1f%%\n", float64(hits)/float64(hits+misses)*100)
	}
	fmt.Printf("DRAM commands    ACT %d  RD %d  WR %d  REF %d\n",
		res.DRAM.NACT, res.DRAM.NRD, res.DRAM.NWR, res.DRAM.NREF)
	fmt.Printf("energy           DRAM %.3f mJ + codecs %.3f uJ\n",
		res.Energy.Total()*1e3, res.ECCEnergyJ*1e6)
	fmt.Printf("active power     %.1f mW over %.3f s\n", res.ActivePowerW*1e3, res.ActiveTimeSec)
	fmt.Printf("EDP              %.3e J*s\n", res.EDP)
	if res.MECC != nil {
		m := res.MECC
		fmt.Printf("MECC             strong reads %d, weak reads %d, downgrades %d\n",
			m.StrongReads, m.WeakReads, m.Downgrades)
		if m.ActiveCycles > 0 {
			fmt.Printf("SMD              downgrade disabled %.1f%% of time (%d windows, %d enables)\n",
				float64(m.DowngradeDisabledCycles)/float64(m.ActiveCycles)*100,
				m.SMDWindows, m.SMDEnables)
		}
	}
	for _, cp := range res.Checkpoints {
		fmt.Printf("checkpoint       %12d instr  IPC %.4f\n", cp.Instructions, cp.IPC)
	}
	return renderTimeline(*timeline, sampler, flight, elog)
}

// newFlightDumper returns a dump function that writes the flight
// recorder's contents as JSONL exactly once, no matter how many
// incident paths race to trigger it. path selects the sink ("" or an
// open failure falls back to stderr; "-" is stdout). A nil recorder
// yields a no-op.
func newFlightDumper(tool string, f *obs.EventLog, path string) func(reason string) {
	var once sync.Once
	return func(reason string) {
		if f == nil {
			return
		}
		once.Do(func() {
			w, closeFn := io.Writer(os.Stderr), func() error { return nil }
			if path != "" {
				if ww, cf, err := openOut(path); err != nil {
					fmt.Fprintf(os.Stderr, "%s: flight-out: %v (dumping to stderr)\n", tool, err)
				} else {
					w, closeFn = ww, cf
				}
			}
			fmt.Fprintf(os.Stderr, "%s: dumping flight recorder (%s, %d events)\n", tool, reason, len(f.Events()))
			if err := f.WriteJSONL(w); err != nil {
				fmt.Fprintf(os.Stderr, "%s: flight dump: %v\n", tool, err)
			}
			if err := closeFn(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: flight dump close: %v\n", tool, err)
			}
		})
	}
}

// renderTimeline prints the ASCII run timeline when requested.
func renderTimeline(on bool, sampler *obs.Sampler, flight, trace *obs.EventLog) error {
	if !on {
		return nil
	}
	fmt.Println()
	fmt.Print(obs.NewTimeline(sampler, flight, trace).String())
	return nil
}
