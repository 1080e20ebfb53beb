// Command meccvet is the project's static-analysis multichecker: four
// analyzers that pin the simulator's compile-time invariants —
// deterministic replay and seed provenance, sentinel-error wrapping,
// batch-worker write discipline with typed atomics, and unsigned
// cycle-arithmetic wrap guards. Run it over the module with
//
//	go run ./cmd/meccvet ./...
//
// (or `make lint`). It exits non-zero on any diagnostic; suppress an
// individual finding with a `//meccvet:allow <analyzer> -- reason`
// comment on or directly above the offending line. A //meccvet:
// directive with an unknown verb, or an allow naming no analyzer, is
// itself reported (as "directive"), whatever -run selects.
//
// Machine-readable output and the CI baseline workflow:
//
//	meccvet -format json ./...          # versioned JSON report
//	meccvet -format sarif ./...         # SARIF 2.1.0 for code scanning
//	meccvet -baseline lint.baseline.json ./...   # fail only on NEW findings
//	meccvet -baseline lint.baseline.json -write-baseline ./...  # accept current
//
// The baseline matches findings on (file, analyzer, message), ignoring
// line numbers, so unrelated edits do not break CI.
//
// Only the named packages are parsed and type-checked; their
// dependencies are imported from the export data in the Go build
// cache, so a sweep right after `go build` or `go vet` reuses the
// compiler's work. `-timings` attributes wall time on stderr to the
// load, the whole-program index, and each analyzer. See DESIGN.md §9.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run drives the multichecker; split from main so cmd tests can invoke
// it in-process.
func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("meccvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("run", "", "comma-separated analyzer names to run (default all)")
	format := fs.String("format", "text", "output format: text, json, or sarif")
	outPath := fs.String("o", "", "write output to this file instead of stdout")
	basePath := fs.String("baseline", "", "baseline file: filter out accepted findings")
	writeBase := fs.Bool("write-baseline", false, "write the current findings to -baseline and exit")
	timings := fs.Bool("timings", false, "print load and per-analyzer wall time to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "meccvet: unknown -format %q (want text, json, or sarif)\n", *format)
		return 2
	}
	if *writeBase && *basePath == "" {
		fmt.Fprintln(stderr, "meccvet: -write-baseline requires -baseline")
		return 2
	}

	// Resolve the baseline before the (slow) load-and-run so a mistyped
	// path fails in milliseconds, not after a full analysis pass.
	var baseline *analysis.Baseline
	if *basePath != "" && !*writeBase {
		b, err := analysis.LoadBaseline(*basePath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		baseline = b
	}

	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	analyzers, err := analysis.Select(names)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var times map[string]time.Duration
	if *timings {
		times = make(map[string]time.Duration)
	}
	loadStart := time.Now()
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *timings {
		times["load"] = time.Since(loadStart)
	}
	diags := analysis.Run(pkgs, analyzers, times)
	if *timings {
		names := make([]string, 0, len(times))
		for n := range times {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return times[names[i]] > times[names[j]] })
		for _, n := range names {
			fmt.Fprintf(stderr, "meccvet: timing %-14s %s\n", n, times[n].Round(time.Microsecond))
		}
	}
	cwd, _ := os.Getwd()
	findings := analysis.Findings(diags, cwd)

	if *writeBase {
		f, err := os.Create(*basePath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		werr := analysis.NewBaseline(findings).Write(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(stderr, werr)
			return 2
		}
		fmt.Fprintf(stderr, "meccvet: baseline %s accepts %d finding(s)\n", *basePath, len(findings))
		return 0
	}

	if baseline != nil {
		findings = baseline.Filter(findings)
	}

	var out io.Writer = stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer f.Close()
		out = f
	}
	switch *format {
	case "json":
		if err := analysis.WriteJSON(out, findings); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	case "sarif":
		if err := analysis.WriteSARIF(out, findings, analyzers); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	default:
		for _, f := range findings {
			fmt.Fprintln(out, f)
		}
	}
	if len(findings) > 0 {
		what := "finding(s)"
		if *basePath != "" {
			what = "new finding(s) not in baseline"
		}
		fmt.Fprintf(stderr, "meccvet: %d %s\n", len(findings), what)
		return 1
	}
	return 0
}
