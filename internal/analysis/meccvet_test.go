package analysis_test

import (
	"errors"
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

func TestErrwrap(t *testing.T) {
	diags := analysistest.Run(t, analysis.Errwrap, "./testdata/src/wrap")
	analysistest.MustFindings(t, diags, 5)
}

func TestConcsafety(t *testing.T) {
	diags := analysistest.Run(t, analysis.Concsafety, "./testdata/src/conc")
	analysistest.MustFindings(t, diags, 7)
}

// TestSeedflow pins determinism's program-wide seed-provenance check.
// The seed fixture sits outside the direct-call scope, so every finding
// comes from provenance.
func TestSeedflow(t *testing.T) {
	diags := analysistest.Run(t, analysis.Determinism, "./testdata/src/seed")
	analysistest.MustFindings(t, diags, 4)
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
// on a run that selects only errwrap.
func TestDirective(t *testing.T) {
	diags := analysistest.Run(t, analysis.Errwrap, "./testdata/src/directive")
	analysistest.MustFindings(t, diags, 2)
	for _, d := range diags {
		if d.Analyzer != "directive" {
			t.Errorf("finding reported under %q, want directive: %s", d.Analyzer, d)
		}
	}
}

// TestSelect pins the registry: All holds exactly the four analyzers,
// Select keeps one analyzer per name, at the name's first position,
// and rejects unknown names, deleted analyzers included.
func TestSelect(t *testing.T) {
	var names []string
	for _, a := range analysis.All() {
		names = append(names, a.Name)
	}
	all := "concsafety cyclewrap determinism errwrap"
	if got := strings.Join(names, " "); got != all {
		t.Fatalf("All() = %s, want %s", got, all)
	}
	for _, tc := range []struct {
		names []string
		want  string // the selected names, or "" for an error
	}{
		{nil, all},
		{[]string{"errwrap", "determinism"}, "errwrap determinism"},
		{[]string{"determinism", "determinism"}, "determinism"},
		{[]string{"errwrap", "cyclewrap", "errwrap"}, "errwrap cyclewrap"},
		{[]string{"nope"}, ""},
		{[]string{"determinism", "nilhook"}, ""},
	} {
		got, err := analysis.Select(tc.names)
		if tc.want == "" {
			if !errors.Is(err, analysis.ErrUnknownAnalyzer) {
				t.Errorf("Select(%v) = %v, %v; want ErrUnknownAnalyzer", tc.names, got, err)
			}
			continue
		}
		var sel []string
		for _, a := range got {
			sel = append(sel, a.Name)
		}
		if err != nil || strings.Join(sel, " ") != tc.want {
			t.Errorf("Select(%v) = %v, %v; want %s", tc.names, sel, err, tc.want)
		}
	}
}

// TestLoadRoots checks Load returns exactly the pattern packages, not
// their dependencies.
func TestLoadRoots(t *testing.T) {
	pkgs, err := analysis.Load(".", "./testdata/src/wrap")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	if got := pkgs[0].Name; got != "wrap" {
		t.Fatalf("root package = %q, want wrap", got)
	}
}
