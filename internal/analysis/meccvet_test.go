package analysis_test

import (
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

func TestHotpath(t *testing.T) {
	diags := analysistest.Run(t, analysis.Hotpath, "./testdata/src/hot")
	analysistest.MustFindings(t, diags, 11)
}

func TestNilhook(t *testing.T) {
	diags := analysistest.Run(t, analysis.Nilhook, "./testdata/src/obs")
	analysistest.MustFindings(t, diags, 3)
}

func TestCycleunits(t *testing.T) {
	diags := analysistest.Run(t, analysis.Cycleunits, "./testdata/src/dram")
	analysistest.MustFindings(t, diags, 3)
}

func TestCycleunitsOutOfScope(t *testing.T) {
	diags := analysistest.Run(t, analysis.Cycleunits, "./testdata/src/scopefree")
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

func TestSeedflow(t *testing.T) {
	diags := analysistest.Run(t, analysis.Seedflow, "./testdata/src/seed")
	analysistest.MustFindings(t, diags, 4)
}

func TestHotclosure(t *testing.T) {
	diags := analysistest.Run(t, analysis.Hotclosure, "./testdata/src/hotcall")
	analysistest.MustFindings(t, diags, 2)
}

// TestHotclosureCHA pins the devirtualization rule: of the four
// interface calls in the fixture's hot root, only the two whose
// interfaces are closed to root types (a method names a root type, or
// is unexported) and whose root implementers are all clean are proven.
func TestHotclosureCHA(t *testing.T) {
	diags := analysistest.Run(t, analysis.Hotclosure, "./testdata/src/cha")
	analysistest.MustFindings(t, diags, 2)
}

func TestUnitflow(t *testing.T) {
	diags := analysistest.Run(t, analysis.Unitflow, "./testdata/src/power")
	analysistest.MustFindings(t, diags, 7)
}

func TestUnitflowOutOfScope(t *testing.T) {
	diags := analysistest.Run(t, analysis.Unitflow, "./testdata/src/scopefree")
	analysistest.MustFindings(t, diags, 0)
}

func TestAtomicfield(t *testing.T) {
	diags := analysistest.Run(t, analysis.Atomicfield, "./testdata/src/atomicf")
	analysistest.MustFindings(t, diags, 3)
}

func TestSeqlock(t *testing.T) {
	diags := analysistest.Run(t, analysis.Seqlock, "./testdata/src/slock")
	analysistest.MustFindings(t, diags, 5)
}

func TestCyclewrap(t *testing.T) {
	diags := analysistest.Run(t, analysis.Cyclewrap, "./testdata/src/cwrap")
	analysistest.MustFindings(t, diags, 3)
}

func TestCyclewrapOutOfScope(t *testing.T) {
	diags := analysistest.Run(t, analysis.Cyclewrap, "./testdata/src/scopefree")
	analysistest.MustFindings(t, diags, 0)
}

func TestHotescape(t *testing.T) {
	diags := analysistest.Run(t, analysis.Hotescape, "./testdata/src/esc")
	analysistest.MustFindings(t, diags, 1)
}

// TestSelect pins the registry: All covers the fourteen analyzers and
// Select rejects unknown names.
func TestSelect(t *testing.T) {
	all := analysis.All()
	if len(all) != 14 {
		t.Fatalf("All() = %d analyzers, want 14", len(all))
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
