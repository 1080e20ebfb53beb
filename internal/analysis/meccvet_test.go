package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// Each analyzer runs against a golden fixture package holding at least
// one violation per rule, one compliant form per sanctioned pattern,
// and one //meccvet:allow suppression (suppressed lines carry no want
// comment, so a regression to reporting them fails the run).

func TestDeterminism(t *testing.T) {
	diags := analysistest.Run(t, analysis.Determinism, "./testdata/src/sim")
	analysistest.MustFindings(t, diags, 6)
}

func TestDeterminismOutOfScope(t *testing.T) {
	diags := analysistest.Run(t, analysis.Determinism, "./testdata/src/scopefree")
	analysistest.MustFindings(t, diags, 0)
}

func TestNilhook(t *testing.T) {
	diags := analysistest.Run(t, analysis.Nilhook, "./testdata/src/obs")
	analysistest.MustFindings(t, diags, 3)
}

// TestCycleunits pins unitflow's typed boundary: conversions between
// time.Duration and raw numbers outside //meccvet:unitconv helpers.
func TestCycleunits(t *testing.T) {
	diags := analysistest.Run(t, analysis.Unitflow, "./testdata/src/dram")
	analysistest.MustFindings(t, diags, 3)
}

// TestCycleunitsOutOfScope pins that the typed boundary shares
// unitflow's package scope: scopefree's bare time.Duration(x) is not
// reported.
func TestCycleunitsOutOfScope(t *testing.T) {
	diags := analysistest.Run(t, analysis.Unitflow, "./testdata/src/scopefree")
	analysistest.MustFindings(t, diags, 0)
}

func TestNopanic(t *testing.T) {
	diags := analysistest.Run(t, analysis.Nopanic, "./testdata/src/lib")
	analysistest.MustFindings(t, diags, 1)
}

func TestNopanicCmdExempt(t *testing.T) {
	diags := analysistest.Run(t, analysis.Nopanic, "./testdata/src/cmd/tool")
	analysistest.MustFindings(t, diags, 0)
}

func TestErrwrap(t *testing.T) {
	diags := analysistest.Run(t, analysis.Errwrap, "./testdata/src/wrap")
	analysistest.MustFindings(t, diags, 5)
}

func TestConcsafety(t *testing.T) {
	diags := analysistest.Run(t, analysis.Concsafety, "./testdata/src/conc")
	analysistest.MustFindings(t, diags, 6)
}

// TestSeedflow pins determinism's program-wide seed-provenance check.
// The seed fixture sits outside the direct-call scope, so every finding
// comes from provenance.
func TestSeedflow(t *testing.T) {
	diags := analysistest.Run(t, analysis.Determinism, "./testdata/src/seed")
	analysistest.MustFindings(t, diags, 4)
}

func TestUnitflow(t *testing.T) {
	diags := analysistest.Run(t, analysis.Unitflow, "./testdata/src/power")
	analysistest.MustFindings(t, diags, 11)
}

func TestUnitflowOutOfScope(t *testing.T) {
	diags := analysistest.Run(t, analysis.Unitflow, "./testdata/src/scopefree")
	analysistest.MustFindings(t, diags, 0)
}

// TestAtomicfield pins concsafety's typed-atomics rule: every call to
// an address-based sync/atomic function is a finding.
func TestAtomicfield(t *testing.T) {
	diags := analysistest.Run(t, analysis.Concsafety, "./testdata/src/atomicf")
	analysistest.MustFindings(t, diags, 2)
}

func TestCyclewrap(t *testing.T) {
	diags := analysistest.Run(t, analysis.Cyclewrap, "./testdata/src/cwrap")
	analysistest.MustFindings(t, diags, 3)
}

func TestCyclewrapOutOfScope(t *testing.T) {
	diags := analysistest.Run(t, analysis.Cyclewrap, "./testdata/src/scopefree")
	analysistest.MustFindings(t, diags, 0)
}

// TestDirective pins the directive check: an unknown verb and an allow
// naming an analyzer outside All are reported under "directive", here
// on a run that selects only nilhook.
func TestDirective(t *testing.T) {
	diags := analysistest.Run(t, analysis.Nilhook, "./testdata/src/directive")
	analysistest.MustFindings(t, diags, 2)
	for _, d := range diags {
		if d.Analyzer != "directive" {
			t.Errorf("finding reported under %q, want directive: %s", d.Analyzer, d)
		}
	}
}

// TestSelect pins the registry: All holds exactly the seven analyzers
// and Select rejects unknown names.
func TestSelect(t *testing.T) {
	var names []string
	for _, a := range analysis.All() {
		names = append(names, a.Name)
	}
	want := "concsafety cyclewrap determinism errwrap nilhook nopanic unitflow"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("All() = %s, want %s", got, want)
	}
	got, err := analysis.Select([]string{"determinism", "nopanic"})
	if err != nil || len(got) != 2 {
		t.Fatalf("Select(determinism,nopanic) = %v, %v", got, err)
	}
	if _, err := analysis.Select([]string{"nope"}); err == nil {
		t.Fatal("Select(nope) succeeded, want error")
	}
}

// TestLoadRoots checks Load returns exactly the pattern packages, not
// their dependencies.
func TestLoadRoots(t *testing.T) {
	pkgs, err := analysis.Load(".", "./testdata/src/lib")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	if got := pkgs[0].Name; got != "lib" {
		t.Fatalf("root package = %q, want lib", got)
	}
}
