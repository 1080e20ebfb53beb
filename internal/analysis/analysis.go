// Package analysis is a self-contained static-analysis framework for
// the meccvet linter (cmd/meccvet). It mirrors the shape of
// golang.org/x/tools/go/analysis — an Analyzer holds a Run function
// over a Pass carrying one type-checked package — but is built purely
// on the standard library (go/parser, go/types and go/importer over
// `go list -json` metadata) so the module keeps its zero-dependency
// property.
//
// The analyzers themselves (determinism, hotpath, hotclosure, nilhook,
// cycleunits, unitflow, nopanic, errwrap, concsafety, seedflow, and
// the rest of the fourteen-strong registry) encode invariants of this
// simulator that the run-time layers (internal/golden,
// internal/checker) cannot see until a simulation executes:
// deterministic replay, the zero-allocation BCH decode contract
// (locally and through the whole callee closure), nil-safe telemetry
// hooks, unit-safe cycle/time conversions (typed and name-inferred),
// documented panics, sentinel-error wrapping, the batch.For per-index
// write discipline, and run-config seed provenance. The
// interprocedural analyzers run on a whole-program layer (program.go:
// call graph + function index; cfg.go: per-function control-flow
// graphs with a worklist dataflow solver; ssa.go: an SSA form with an
// escape oracle in escape.go and CHA devirtualization in devirt.go)
// built once per Run. The loader (load.go) type-checks the analyzed
// packages from source and imports their dependencies from the export
// data in the Go build cache. See DESIGN.md §9 for the rationale and
// the suppression syntax.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// An Analyzer describes one named analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//meccvet:allow <name>` suppressions.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package, reporting findings via
	// pass.Reportf. It returns an error only for internal failures, not
	// for findings.
	Run func(pass *Pass) error
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Message describes the violation.
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	// Analyzer is the pass's analyzer.
	Analyzer *Analyzer
	// Fset maps positions for every file of the package.
	Fset *token.FileSet
	// Files are the package's parsed source files (non-test only).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the package's type-checking facts.
	Info *types.Info
	// PkgPath is the package's import path.
	PkgPath string
	// Prog is the whole-program view over every root package of the
	// run — the call graph, function index, and interprocedural
	// summaries behind hotclosure, concsafety, seedflow, and unitflow.
	Prog *Program

	directives []directive
	report     func(Diagnostic)
}

// Reportf records a finding unless an `//meccvet:allow` directive on
// the same line or the line above suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allowedAt(position) {
		return
	}
	p.report(Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowedAt reports whether an allow directive covers the position for
// this pass's analyzer. Directives are collected program-wide, because
// interprocedural analyzers report at positions outside the current
// package (the breaking call edge of a hot-path closure may live in a
// callee's package); the filename match keeps the check exact.
func (p *Pass) allowedAt(pos token.Position) bool {
	return directivesAllow(p.directives, p.Analyzer.Name, pos)
}

// directivesAllow reports whether an allow directive in the set covers
// the position for the named analyzer: the directive may trail the
// offending line or sit alone on the line directly above it.
func directivesAllow(dirs []directive, analyzer string, pos token.Position) bool {
	return directiveAllowIndex(dirs, analyzer, pos) >= 0
}

// directiveAllowIndex returns the index of the allow directive covering
// the position for the named analyzer, or -1.
func directiveAllowIndex(dirs []directive, analyzer string, pos token.Position) int {
	for i, d := range dirs {
		if d.verb != verbAllow || d.pos.Filename != pos.Filename {
			continue
		}
		if d.pos.Line != pos.Line && d.pos.Line != pos.Line-1 {
			continue
		}
		if len(d.names) == 0 {
			return i
		}
		for _, n := range d.names {
			if n == analyzer {
				return i
			}
		}
	}
	return -1
}

// TypeOf returns the static type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Run applies every analyzer to every package and returns the surviving
// diagnostics sorted by position. Packages whose type check failed are
// reported as loader diagnostics rather than analyzed: analyzers may
// assume complete type information. Before the per-package passes run,
// the error-free packages are indexed into one Program — the call
// graph and function index the interprocedural analyzers traverse.
// When timings is non-nil, each analyzer's wall time across all
// packages accumulates under its name (plus "program" for the index
// build).
func Run(pkgs []*Package, analyzers []*Analyzer, timings map[string]time.Duration) []Diagnostic {
	var out []Diagnostic
	progStart := time.Now()
	prog := buildProgram(pkgs)
	if timings != nil {
		timings["program"] += time.Since(progStart)
	}
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 {
			for _, err := range pkg.Errors {
				out = append(out, Diagnostic{
					Pos:      token.Position{Filename: pkg.Dir},
					Analyzer: "load",
					Message:  err.Error(),
				})
			}
			continue
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				Info:       pkg.Info,
				PkgPath:    pkg.PkgPath,
				Prog:       prog,
				directives: prog.directives,
				report:     func(d Diagnostic) { out = append(out, d) },
			}
			start := time.Now()
			err := a.Run(pass)
			if timings != nil {
				timings[a.Name] += time.Since(start)
			}
			if err != nil {
				out = append(out, Diagnostic{
					Pos:      token.Position{Filename: pkg.Dir},
					Analyzer: a.Name,
					Message:  fmt.Sprintf("internal analyzer error: %v", err),
				})
			}
		}
	}
	sortDiags(out)
	return out
}

// sortDiags orders diagnostics by position, then analyzer, then
// message — a total order, so every run renders byte-identically.
func sortDiags(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// pathSegment reports whether one of path's slash-separated segments
// equals seg — the scoping primitive analyzers use, so that fixture
// packages under testdata/src/<seg> scope exactly like the real
// internal/<seg> packages.
func pathSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// anySegment reports whether path contains any of the named segments.
func anySegment(path string, segs []string) bool {
	for _, s := range segs {
		if pathSegment(path, s) {
			return true
		}
	}
	return false
}
