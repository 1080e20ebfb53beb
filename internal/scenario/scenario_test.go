package scenario

import (
	"strings"
	"testing"
)

// TestSeedScenarios is the black-box gate: every embedded seed scenario
// must pass end-to-end. Under -short only the scenarios marked short run
// (the PR-level CI subset); the full set runs on main.
func TestSeedScenarios(t *testing.T) {
	specs, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 8 {
		t.Fatalf("seed library has %d scenarios, want >= 8", len(specs))
	}
	for _, s := range specs {
		t.Run(s.Name, func(t *testing.T) {
			if testing.Short() && !s.Short {
				t.Skip("full-length scenario; run without -short")
			}
			out, err := Run(s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !out.Passed {
				for _, inv := range out.Invariants {
					if !inv.OK {
						t.Errorf("invariant failed: %s — %s", inv.Desc, inv.Detail)
					}
				}
				for _, v := range out.Violations {
					t.Errorf("violation: %s", v)
				}
			}
		})
	}
}

// TestBuiltinSpecsValid pins the library's shape: validated as a set,
// unique names, and a usable -short subset.
func TestBuiltinSpecsValid(t *testing.T) {
	specs, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSet(specs); err != nil {
		t.Fatal(err)
	}
	short := 0
	for _, s := range specs {
		if s.Short {
			short++
		}
		if s.Description == "" {
			t.Errorf("%s: missing description", s.Name)
		}
	}
	if short < 5 {
		t.Errorf("only %d short scenarios, want >= 5 for the PR subset", short)
	}
}

// TestViolationContextLabel verifies the checker satellite end-to-end:
// a violation produced during a scenario names the scenario and phase.
func TestViolationContextLabel(t *testing.T) {
	s := mustBuiltin(t, "fault-storm")
	out, err := Run(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) == 0 {
		t.Fatal("fault-storm produced no violations")
	}
	if !strings.Contains(out.Violations[0], "[fault-storm/burst]") {
		t.Errorf("violation lacks scenario/phase context: %s", out.Violations[0])
	}
}

func mustBuiltin(t *testing.T, name string) Spec {
	t.Helper()
	specs, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no built-in scenario %q", name)
	return Spec{}
}
