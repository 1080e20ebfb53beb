// Command paperbench regenerates the tables and figures of the paper's
// evaluation. Each experiment prints the same rows the paper reports.
//
// Usage:
//
//	paperbench [-experiment all|table1|table2|table3|table4|fig2|fig3|
//	            fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|
//	            ablations|relatedwork|modes|capacity|day|integrity]
//	           [-scale N] [-seed S] [-parallel P] [-chart]
//	           [-metrics-out FILE] [-trace-out FILE] [-timeline]
//	           [-cpuprofile FILE] [-memprofile FILE]
//	           [-serve ADDR] [-flight N] [-flight-out FILE] [-linger DUR]
//
// -scale divides the paper's 4-billion-instruction slices (footprints
// and SMD windows shrink coherently); -scale 1 is the paper's full
// scale and takes hours.
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

// exhibit is one runnable experiment; run prints its own section.
type exhibit struct {
	name string
	run  func() error
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
		parallel   = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
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
		fmt.Println("table1   Table I: failure probability vs ECC strength (analytic)")
		fmt.Println("table2   Table II: baseline system configuration")
		fmt.Println("table3   Table III: benchmark characterization (simulated)")
		fmt.Println("table4   Table IV: memory power parameters")
		fmt.Println("fig2     retention-time distribution (analytic)")
		fmt.Println("fig3     decode-latency performance impact by class")
		fmt.Println("fig7     SECDED / ECC-6 / MECC normalized IPC (headline)")
		fmt.Println("fig8     idle-mode refresh and total power (analytic)")
		fmt.Println("fig9     active-mode power / energy / EDP")
		fmt.Println("fig10    total energy at 95% idle")
		fmt.Println("fig11    MDT-tracked memory per benchmark")
		fmt.Println("fig12    ECC-6 decode-latency sensitivity sweep")
		fmt.Println("fig13    MECC warm-up transient vs slice length")
		fmt.Println("fig14    SMD downgrade-disabled time")
		fmt.Println("ablations  MDT/SMD/refresh/mapping/REFpb/weak-code/scrub/scheduler/prefetch/temperature")
		fmt.Println("relatedwork  RAIDR/Flikker/SECRET vs MECC under VRT; Hi-ECC granularity")
		fmt.Println("modes    SR/PASR/DPD/MECC power vs capacity")
		fmt.Println("capacity idle power and savings vs memory size")
		fmt.Println("day      Fig 1 usage pattern through the phase simulator")
		fmt.Println("daemon   Section VI-B idle-daemon study (SMD on/off)")
		fmt.Println("model    simulator vs first-order CPI theory")
		fmt.Println("integrity  end-to-end fault-injection Monte Carlo")
		return nil
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
	if err := opts.Validate(); err != nil {
		return err
	}
	suite, err := experiments.NewSuite(opts)
	if err != nil {
		return err
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*experiment, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	selected := func(name string) bool { return all || want[name] }

	section := func(title string) {
		fmt.Printf("\n=== %s ===\n", title)
	}

	exhibits := []exhibit{
		{"table1", func() error {
			res, err := experiments.TableI()
			if err != nil {
				return err
			}
			section("Table I: line and system failure probability (BER 10^-4.5, 64B lines, 1GB)")
			fmt.Print(res.Rendered)
			fmt.Printf("Required strength incl. soft-error margin: ECC-%d\n", res.RequiredStrength)
			return nil
		}},
		{"table2", func() error {
			section("Table II: baseline system configuration")
			fmt.Print(experiments.TableII())
			return nil
		}},
		{"table3", func() error {
			start := time.Now()
			res, err := experiments.TableIII(suite)
			if err != nil {
				return err
			}
			section(fmt.Sprintf("Table III: benchmark characterization (measured, scale 1/%d, %v)", *scale, time.Since(start).Round(time.Millisecond)))
			fmt.Print(res.Rendered)
			return nil
		}},
		{"table4", func() error {
			section("Table IV: memory power parameters")
			fmt.Print(experiments.TableIV())
			return nil
		}},
		{"fig2", func() error {
			res := experiments.Fig2()
			section(fmt.Sprintf("Fig 2: retention-time distribution (log-log slope %.2f)", res.Slope))
			fmt.Print(res.Rendered)
			return nil
		}},
		{"fig3", func() error {
			res, err := experiments.Fig3(suite)
			if err != nil {
				return err
			}
			section("Fig 3: performance impact of decode latency (normalized IPC)")
			fmt.Print(res.Rendered)
			return nil
		}},
		{"fig7", func() error {
			res, err := experiments.Fig7(suite)
			if err != nil {
				return err
			}
			section("Fig 7: SECDED / ECC-6 / MECC normalized IPC per benchmark")
			fmt.Print(res.Rendered)
			if *chart {
				bc := stats.NewBarChart(50)
				bc.SetReference(1.0)
				for _, bar := range res.Bars {
					bc.Add(bar.Name, "SECDED", bar.SECDED)
					bc.Add(bar.Name, "ECC-6", bar.ECC6)
					bc.Add(bar.Name, "MECC", bar.MECC)
				}
				fmt.Println()
				fmt.Print(bc.String())
			}
			return nil
		}},
		{"fig8", func() error {
			res, err := experiments.Fig8()
			if err != nil {
				return err
			}
			section("Fig 8: idle-mode refresh and total power (normalized to baseline)")
			fmt.Print(res.Rendered)
			fmt.Printf("Idle power reduction with MECC: %.1f%%\n", res.Reduction*100)
			return nil
		}},
		{"fig9", func() error {
			res, err := experiments.Fig9(suite)
			if err != nil {
				return err
			}
			section("Fig 9: active-mode power / energy / EDP (geomean, normalized)")
			fmt.Print(res.Rendered)
			return nil
		}},
		{"fig10", func() error {
			res, err := experiments.Fig10(suite)
			if err != nil {
				return err
			}
			section("Fig 10: total memory energy at 95% idle (normalized to baseline total)")
			fmt.Print(res.Rendered)
			fmt.Printf("Total memory energy saving with MECC: %.1f%%\n", res.Saving*100)
			return nil
		}},
		{"fig11", func() error {
			res, err := experiments.Fig11(opts)
			if err != nil {
				return err
			}
			section("Fig 11: memory tracked by 1K-entry MDT (full footprints)")
			fmt.Print(res.Rendered)
			return nil
		}},
		{"fig12", func() error {
			res, err := experiments.Fig12(suite)
			if err != nil {
				return err
			}
			section("Fig 12: sensitivity to ECC-6 decode latency (normalized IPC)")
			fmt.Print(res.Rendered)
			return nil
		}},
		{"fig13", func() error {
			res, err := experiments.Fig13(suite)
			if err != nil {
				return err
			}
			section("Fig 13: MECC warm-up transient vs slice length")
			fmt.Print(res.Rendered)
			return nil
		}},
		{"fig14", func() error {
			res, err := experiments.Fig14(suite)
			if err != nil {
				return err
			}
			section("Fig 14: SMD downgrade-disabled execution time (MPKC threshold 2)")
			fmt.Print(res.Rendered)
			fmt.Printf("Benchmarks never enabling ECC-Downgrade: %d of 28\n", res.NeverEnabled)
			return nil
		}},
		{"ablations", func() error {
			mdt, err := experiments.AblationMDT(opts)
			if err != nil {
				return err
			}
			section("Ablation: MDT region-count sweep")
			fmt.Print(mdt.Rendered)

			smd, err := experiments.AblationSMDThreshold(suite)
			if err != nil {
				return err
			}
			section("Ablation: SMD threshold sweep")
			fmt.Print(smd.Rendered)

			ref, err := experiments.AblationRefreshSweep()
			if err != nil {
				return err
			}
			section("Ablation: refresh period vs required ECC strength")
			fmt.Print(ref.Rendered)

			mapping, err := experiments.AblationMapping(opts)
			if err != nil {
				return err
			}
			section("Ablation: address-interleaving policy")
			fmt.Print(mapping.Rendered)

			policy, err := experiments.AblationRefreshPolicy(opts)
			if err != nil {
				return err
			}
			section("Ablation: all-bank REF vs per-bank REFpb")
			fmt.Print(policy.Rendered)

			weak, err := experiments.AblationWeakCode(2000, *seed)
			if err != nil {
				return err
			}
			section("Ablation: weak-code choice under active-mode soft errors")
			fmt.Print(weak.Rendered)

			scrub, err := experiments.ScrubTable()
			if err != nil {
				return err
			}
			section("Ablation: scrub interval (idle periods between corrections)")
			fmt.Print(scrub)

			sched, err := experiments.AblationScheduler(opts)
			if err != nil {
				return err
			}
			section("Ablation: memory-scheduler policy")
			fmt.Print(sched.Rendered)

			pf, err := experiments.AblationPrefetch(opts)
			if err != nil {
				return err
			}
			section("Ablation: next-line prefetcher (under MECC)")
			fmt.Print(pf.Rendered)

			temp, err := experiments.AblationTemperature()
			if err != nil {
				return err
			}
			section("Ablation: junction temperature vs required ECC at 1s refresh")
			fmt.Print(temp.Rendered)
			return nil
		}},
		{"day", func() error {
			res, err := experiments.DayInTheLife(opts)
			if err != nil {
				return err
			}
			section("Day-in-the-life: Fig 1 usage pattern through the phase simulator")
			fmt.Print(res.Rendered)
			return nil
		}},
		{"relatedwork", func() error {
			res, err := experiments.RelatedWork(*seed)
			if err != nil {
				return err
			}
			section("Related work (Section VII): refresh schemes under VRT")
			fmt.Print(res.Rendered)

			hi := experiments.HiECC()
			section("Related work (Section VII-C): Hi-ECC granularity trade-off")
			fmt.Print(hi.Rendered)
			return nil
		}},
		{"modes", func() error {
			res, err := experiments.RefreshModes()
			if err != nil {
				return err
			}
			section("Refresh modes (Section II-A): power vs usable capacity")
			fmt.Print(res.Rendered)
			return nil
		}},
		{"daemon", func() error {
			res, err := experiments.Daemon(opts)
			if err != nil {
				return err
			}
			section("Daemon study (Section VI-B): SMD keeps slow refresh through background activity")
			fmt.Print(res.Rendered)
			return nil
		}},
		{"model", func() error {
			res, err := experiments.ModelValidation(suite)
			if err != nil {
				return err
			}
			section("Model validation: simulator vs first-order CPI theory (ECC-6)")
			fmt.Print(res.Rendered)
			return nil
		}},
		{"capacity", func() error {
			res, err := experiments.CapacityScaling()
			if err != nil {
				return err
			}
			section("Capacity scaling: idle power and MECC savings vs memory size")
			fmt.Print(res.Rendered)
			return nil
		}},
		{"integrity", func() error {
			res, err := experiments.Integrity(*trials, 0, *seed)
			if err != nil {
				return err
			}
			section("Integrity: end-to-end fault injection through the real codecs")
			fmt.Print(res.Rendered)
			return nil
		}},
	}

	// Run the selected exhibits in order, timing each one into the
	// registry (exp_<name>_wall_seconds) and the summary table.
	type timing struct {
		name string
		d    time.Duration
	}
	var timings []timing
	for _, e := range exhibits {
		if !selected(e.name) {
			continue
		}
		// /progress reports the exhibit currently running; its
		// simulations set done/total to their retired instructions and
		// summed instruction budgets. Each
		// exhibit is also a wall-clock trace span, sitting alongside the
		// harness's per-job spans in obsdump's latency summary.
		prog.SetPhase(e.name)
		start := time.Now()
		sp := rec.StartSpan("exhibit:"+e.name, uint64(start.UnixNano()))
		if err := e.run(); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		sp.End(uint64(time.Now().UnixNano()))
		d := time.Since(start)
		timings = append(timings, timing{e.name, d})
		rec.Gauge("exp_" + e.name + "_wall_seconds").Set(d.Seconds())
	}
	prog.SetPhase("done")
	if len(timings) == 0 {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}

	if *summary {
		section("Run summary")
		tb := stats.NewTable("experiment", "wall")
		var total time.Duration
		for _, t := range timings {
			tb.AddRow(t.name, t.d.Round(time.Millisecond).String())
			total += t.d
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
