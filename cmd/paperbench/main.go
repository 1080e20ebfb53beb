// Command paperbench regenerates the tables and figures of the paper's
// evaluation. Each experiment prints the same rows the paper reports.
//
// Usage:
//
//	paperbench [-list] [-experiment all|NAME[,NAME...]]
//	           [-scale N] [-seed S] [-parallel P] [-chart]
//	           [-integrity-trials N] [-check] [-summary=false]
//	           [-metrics-out FILE] [-trace-out FILE] [-trace-events KINDS]
//	           [-timeline] [-cpuprofile FILE] [-memprofile FILE]
//	           [-serve ADDR] [-flight N] [-flight-out FILE] [-linger DUR]
//
// -list prints the exhibit names -experiment accepts, in run order, each
// with a one-line description. -scale divides the paper's
// 4-billion-instruction slices (footprints and SMD windows shrink
// coherently); -scale 1 is the paper's full scale and takes hours.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/batch"
	"repro/internal/bch"
	"repro/internal/checker"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/httpserv"
	"repro/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

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

func run() error {
	var (
		experiment = flag.String("experiment", "all", "which exhibit to regenerate (comma-separated, or 'all')")
		scale      = flag.Int("scale", 400, "divide the paper's 4B-instruction slices by this factor")
		seed       = flag.Int64("seed", 1, "workload generator seed")
		parallel   = flag.Int("parallel", 0, "harness workers; each steps the simulations that share a record stream in lockstep (0 = GOMAXPROCS)")
		trials     = flag.Int("integrity-trials", 5000, "Monte Carlo trials for -experiment integrity")
		chart      = flag.Bool("chart", false, "render fig7 as an ASCII bar chart too")
		list       = flag.Bool("list", false, "list experiment names and exit")
		summary    = flag.Bool("summary", true, "print per-experiment wall-time and counter summaries")
		metricsOut = flag.String("metrics-out", "", "write the run's metrics to this file (- for stdout; .csv selects CSV, otherwise Prometheus text)")
		traceOut   = flag.String("trace-out", "", "write a JSONL event trace to this file (- for stdout); events from parallel runs interleave")
		traceEvts  = flag.String("trace-events", "mecc_transition,sweep_start,sweep_end,smd_window,smd_enable,smd_disable,refresh_rate", "event kinds to trace: all, or a comma list")
		timeline   = flag.Bool("timeline", false, "render the event-census timeline after the run: SMD intervals from the flight recorder, exact per-kind counts of the -trace-events kinds (needs -flight > 0)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		check      = flag.Bool("check", false, "attach run-time invariant checkers to every simulation; violations fail the run")
		serve      = flag.String("serve", "", "serve /metrics, /healthz, /progress and /debug/pprof on this address while running (e.g. :9090)")
		flightN    = flag.Int("flight", obs.DefaultFlightEvents, "flight-recorder window in events (0 disables); it keeps the newest events of every kind except dram_cmd, decode and refresh")
		flightOut  = flag.String("flight-out", "", "dump the flight recorder to this file at exit and on incident (- for stdout; default incidents go to stderr)")
		linger     = flag.Duration("linger", 0, "keep the obs server up this long after the run completes")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "paperbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "paperbench: memprofile:", err)
			}
		}()
	}

	if *list {
		for _, e := range experiments.Exhibits() {
			fmt.Printf("%-11s %s\n", e.Name, e.Desc)
		}
		return nil
	}
	exhibits, err := experiments.Select(*experiment, *trials)
	if err != nil {
		return err
	}

	if *flightN < 0 {
		return fmt.Errorf("%w: -flight %d, want 0 (off) or a window of events", experiments.ErrBadOptions, *flightN)
	}
	if *timeline && *flightN <= 0 {
		return fmt.Errorf("-timeline draws from the flight recorder: it needs -flight > 0")
	}
	// The harness always carries a recorder: each simulation publishes
	// its counters from its own statistics every 1024 trace records
	// (never changing results), and the wall-time summary reuses the
	// same registry. The default flight recorder keeps only the
	// low-rate event kinds (obs.FlightKinds) and is the only log that
	// retains events; the trace log, and with it per-command and
	// per-read events, is opt-in via -trace-out / -timeline and only
	// streams and counts.
	rec := obs.New()
	var flight *obs.EventLog
	if *flightN > 0 {
		flight = obs.NewEventLog(obs.FlightKinds, *flightN)
		rec.AddEventLog(flight)
	}
	prog := obs.NewProgress()
	rec.SetProgress(prog)
	var elog *obs.EventLog
	if *traceOut != "" || *timeline {
		mask, err := obs.ParseKindMask(*traceEvts)
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
					fmt.Fprintln(os.Stderr, "paperbench: close trace-out:", cerr)
				}
			}()
			elog.SetStream(w)
		}
		rec.AddEventLog(elog)
	}
	bch.SetObserver(rec)
	defer bch.SetObserver(nil)
	batch.SetObserver(rec)
	defer batch.SetObserver(nil)

	// Incident handling: dump the flight recorder's tail once on the
	// first of checker fire, panic, SIGQUIT, or (with -flight-out)
	// normal exit.
	dumpFlight := newFlightDumper("paperbench", flight, *flightOut)
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

	var srv *httpserv.Server
	if *serve != "" {
		srv = httpserv.New(httpserv.Config{
			Registry: rec.Registry(),
			Progress: prog,
			Flight:   flight,
		})
		addr, err := srv.Start(*serve)
		if err != nil {
			return fmt.Errorf("obs server: %w", err)
		}
		defer func() {
			if cerr := srv.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "paperbench: close obs server:", cerr)
			}
		}()
		fmt.Fprintf(os.Stderr, "paperbench: obs server on http://%s (/metrics /healthz /progress /flight /debug/pprof)\n", addr)
		defer func() {
			if *linger > 0 {
				fmt.Fprintf(os.Stderr, "paperbench: obs server lingering %s on http://%s\n", *linger, addr)
				time.Sleep(*linger)
			}
		}()
	}

	opts := experiments.Options{Scale: *scale, Seed: *seed, Parallel: *parallel, Obs: rec}
	if *check {
		opts.Check = checker.NewSuite()
		opts.Check.SetOnViolation(func(v checker.Violation) {
			dumpFlight("invariant " + v.Invariant)
		})
	}
	suite, err := experiments.NewSuite(opts)
	if err != nil {
		return err
	}

	// Run the selected exhibits in order, timing each one into the
	// registry (exp_<name>_wall_seconds) and the summary table.
	walls := make([]time.Duration, len(exhibits))
	for i, e := range exhibits {
		// /progress reports the exhibit currently running; its
		// simulations set done/total to their retired instructions and
		// summed instruction budgets. Each
		// exhibit is also a wall-clock trace span, sitting alongside the
		// harness's per-job spans in obsdump's latency summary.
		prog.SetPhase(e.Name)
		start := time.Now()
		sp := rec.StartSpan("exhibit:"+e.Name, uint64(start.UnixNano()))
		sections, err := e.Run(suite, *trials)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		for _, sec := range sections {
			printSection(sec.Title)
			fmt.Print(sec.Body)
		}
		if e.Name == "fig7" && *chart {
			if err := printChart(suite); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
		}
		sp.End(uint64(time.Now().UnixNano()))
		walls[i] = time.Since(start)
		rec.Gauge("exp_" + e.Name + "_wall_seconds").Set(walls[i].Seconds())
	}
	prog.SetPhase("done")

	if *summary {
		printSection("Run summary")
		tb := stats.NewTable("experiment", "wall")
		var total time.Duration
		for i, e := range exhibits {
			tb.AddRow(e.Name, walls[i].Round(time.Millisecond).String())
			total += walls[i]
		}
		tb.AddRow("total", total.Round(time.Millisecond).String())
		fmt.Print(tb.String())
		printCounters(rec.Registry())
	}
	if *metricsOut != "" {
		if err := writeMetrics(rec.Registry(), *metricsOut); err != nil {
			return fmt.Errorf("write metrics: %w", err)
		}
	}
	if err := rec.Flush(); err != nil {
		return fmt.Errorf("flush trace: %w", err)
	}
	if *timeline {
		fmt.Println()
		fmt.Print(obs.NewTimeline(nil, flight, elog).String())
	}
	if opts.Check != nil {
		for _, v := range opts.Check.Violations() {
			fmt.Fprintln(os.Stderr, "paperbench: violation:", v)
		}
		if err := opts.Check.Err(); err != nil {
			return err
		}
		fmt.Println("\ninvariant checkers: all clean")
	}
	return nil
}

// printSection prints a section's "=== title ===" header.
func printSection(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

// printChart renders Fig 7's bars as an ASCII bar chart. The matrix is
// already in the suite's cache, so this simulates nothing.
func printChart(suite *experiments.Suite) error {
	res, err := experiments.Fig7(suite)
	if err != nil {
		return err
	}
	bc := stats.NewBarChart(50)
	bc.SetReference(1.0)
	for _, bar := range res.Bars {
		bc.Add(bar.Name, "SECDED", bar.SECDED)
		bc.Add(bar.Name, "ECC-6", bar.ECC6)
		bc.Add(bar.Name, "MECC", bar.MECC)
	}
	fmt.Println()
	fmt.Print(bc.String())
	return nil
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

// printCounters renders the non-zero counters accumulated across every
// simulation of the run.
func printCounters(reg *obs.Registry) {
	names := reg.CounterNames()
	tb := stats.NewTable("counter", "value")
	rows := 0
	for _, n := range names {
		if v := reg.Counter(n).Value(); v > 0 {
			tb.AddRow(n, fmt.Sprintf("%d", v))
			rows++
		}
	}
	if rows == 0 {
		return
	}
	fmt.Println()
	fmt.Print(tb.String())
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
