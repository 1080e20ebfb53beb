// Command meccscn runs declarative simulation scenarios
// (internal/scenario): multi-phase device usage patterns with declared
// invariants, evaluated black-box against the simulator.
//
// Subcommands:
//
//	meccscn list [-metrics]          list built-in scenarios (or metric names)
//	meccscn validate FILE...         validate spec files, print errors
//	meccscn run [flags] [FILE...]    run scenarios and report pass/fail
//
// run flags:
//
//	-specs DIR     load *.json specs from DIR instead of the built-ins
//	-run REGEX     only scenarios whose name matches
//	-short         only scenarios marked "short" (the PR-level subset)
//	-workers N     concurrent scenarios (default 1; results identical);
//	               each may run up to two twin runs alongside its own,
//	               so a scenario uses up to three goroutines
//	-legacy        use the per-cycle legacy scheduler
//	-no-check      skip run-time invariant checkers
//	-out FILE      write JSONL outcomes ("-" for stdout)
//	-trace-out F   write an obs event trace (JSONL)
//	-v             print per-invariant detail
//
// Exit status: 0 when every selected scenario passes, 1 on any failure
// or invalid spec.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"

	"repro/internal/obs"
	"repro/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 1
	}
	switch args[0] {
	case "list":
		return cmdList(args[1:])
	case "validate":
		return cmdValidate(args[1:])
	case "run":
		return cmdRun(args[1:])
	case "-h", "-help", "--help", "help":
		usage()
		return 0
	default:
		fmt.Fprintf(os.Stderr, "meccscn: unknown subcommand %q\n", args[0])
		usage()
		return 1
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: meccscn <list|validate|run> [flags]")
	fmt.Fprintln(os.Stderr, "  list [-metrics]        list built-in scenarios or valid metric names")
	fmt.Fprintln(os.Stderr, "  validate FILE...       validate scenario spec files")
	fmt.Fprintln(os.Stderr, "  run [flags] [FILE...]  run scenarios (built-ins by default)")
}

func cmdList(args []string) int {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	metrics := fs.Bool("metrics", false, "list valid metric names instead of scenarios")
	specsDir := fs.String("specs", "", "list specs from this directory instead of the built-ins")
	fs.Parse(args)
	if *metrics {
		for _, name := range scenario.MetricNames() {
			fmt.Println(name)
		}
		return 0
	}
	specs, err := loadSpecs(*specsDir, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "meccscn: %v\n", err)
		return 1
	}
	for _, s := range specs {
		tag := ""
		if s.Short {
			tag = " [short]"
		}
		fmt.Printf("%-22s%s %s\n", s.Name, tag, s.Description)
	}
	return 0
}

func cmdValidate(args []string) int {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	fs.Parse(args)
	files := fs.Args()
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "meccscn validate: no spec files given")
		return 1
	}
	bad := 0
	var specs []scenario.Spec
	for _, f := range files {
		s, err := scenario.LoadFile(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "meccscn: %v\n", err)
			bad++
			continue
		}
		specs = append(specs, s)
		fmt.Printf("%s: ok (%s)\n", f, s.Name)
	}
	if err := scenario.ValidateSet(specs); err != nil {
		fmt.Fprintf(os.Stderr, "meccscn: %v\n", err)
		bad++
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// loadSpecs resolves the spec source: explicit files > directory >
// built-ins.
func loadSpecs(dir string, files []string) ([]scenario.Spec, error) {
	if len(files) > 0 {
		var specs []scenario.Spec
		for _, f := range files {
			s, err := scenario.LoadFile(f)
			if err != nil {
				return nil, err
			}
			specs = append(specs, s)
		}
		if err := scenario.ValidateSet(specs); err != nil {
			return nil, err
		}
		return specs, nil
	}
	if dir != "" {
		return scenario.LoadDir(dir)
	}
	return scenario.Builtin()
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	specsDir := fs.String("specs", "", "load *.json specs from this directory instead of the built-ins")
	runRE := fs.String("run", "", "only scenarios whose name matches this regexp")
	short := fs.Bool("short", false, "only scenarios marked short (the PR-level subset)")
	workers := fs.Int("workers", 1, "concurrent scenarios (each uses up to three goroutines: its run and its baseline and stepping twins)")
	legacy := fs.Bool("legacy", false, "use the per-cycle legacy scheduler")
	noCheck := fs.Bool("no-check", false, "skip run-time invariant checkers")
	out := fs.String("out", "", "write JSONL outcomes to this file (- for stdout)")
	traceOut := fs.String("trace-out", "", "write an obs event trace (JSONL) to this file")
	verbose := fs.Bool("v", false, "print per-invariant detail")
	fs.Parse(args)

	specs, err := loadSpecs(*specsDir, fs.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "meccscn: %v\n", err)
		return 1
	}
	if *runRE != "" {
		re, err := regexp.Compile(*runRE)
		if err != nil {
			fmt.Fprintf(os.Stderr, "meccscn: bad -run regexp: %v\n", err)
			return 1
		}
		var kept []scenario.Spec
		for _, s := range specs {
			if re.MatchString(s.Name) {
				kept = append(kept, s)
			}
		}
		specs = kept
	}
	if *short {
		var kept []scenario.Spec
		for _, s := range specs {
			if s.Short {
				kept = append(kept, s)
			}
		}
		specs = kept
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	if len(specs) == 0 {
		fmt.Fprintln(os.Stderr, "meccscn: no scenarios selected")
		return 0
	}

	opts := scenario.Options{NoCheck: *noCheck, LegacyStepping: *legacy}
	var elog *obs.EventLog
	var traceFile *os.File
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "meccscn: %v\n", err)
			return 1
		}
		defer traceFile.Close()
		elog = obs.NewEventLog(obs.MaskAll, 0)
		elog.SetStream(traceFile)
		rec := obs.New()
		rec.AddEventLog(elog)
		opts.Obs = rec
	}

	outcomes, err := scenario.RunSet(specs, opts, *workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "meccscn: %v\n", err)
		return 1
	}
	if elog != nil {
		if err := elog.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "meccscn: trace flush: %v\n", err)
		}
	}

	failed := 0
	for _, o := range outcomes {
		status := "PASS"
		if !o.Passed {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%s %s (%s, %d phases, uncorrectable %.3g)\n",
			status, o.Name, o.Scheme, len(o.Phases), o.UncorrectableProb)
		for _, inv := range o.Invariants {
			if !inv.OK || *verbose {
				mark := "ok"
				if !inv.OK {
					mark = "FAIL"
				}
				detail := inv.Detail
				if detail != "" {
					detail = " — " + detail
				}
				fmt.Printf("  %-4s %s%s\n", mark, inv.Desc, detail)
			}
		}
		if !o.Passed {
			for _, v := range o.Violations {
				fmt.Printf("  violation: %s\n", v)
			}
		}
	}
	fmt.Printf("%d/%d scenarios passed\n", len(outcomes)-failed, len(outcomes))

	if *out != "" {
		w := os.Stdout
		if *out != "-" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "meccscn: %v\n", err)
				return 1
			}
			defer f.Close()
			w = f
		}
		if err := scenario.WriteJSONL(w, outcomes); err != nil {
			fmt.Fprintf(os.Stderr, "meccscn: %v\n", err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
