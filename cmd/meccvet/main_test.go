package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs the checker with stdout/stderr redirected to temp files
// and returns the exit code plus both streams.
func capture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	mk := func(name string) *os.File {
		f, err := os.CreateTemp(t.TempDir(), name)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	stdout, stderr := mk("stdout"), mk("stderr")
	defer stdout.Close()
	defer stderr.Close()
	code := run(args, stdout, stderr)
	read := func(f *os.File) string {
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	return code, read(stdout), read(stderr)
}

// seedFixture is a fixture package with known determinism findings:
// it sits outside the direct-call scope, so all four are seed
// provenance.
const seedFixture = "../../internal/analysis/testdata/src/seed"

func TestListCoversAllAnalyzers(t *testing.T) {
	code, out, _ := capture(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := "concsafety cyclewrap determinism errwrap"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("-list printed %s, want %s:\n%s", got, want, out)
	}
}

// TestJSONFormat pins the JSON report: exactly the seed fixture's four
// findings, also when -run repeats the analyzer's name.
func TestJSONFormat(t *testing.T) {
	for _, only := range []string{"determinism", "determinism,determinism"} {
		t.Run(only, func(t *testing.T) {
			code, out, _ := capture(t, "-run", only, "-format", "json", seedFixture)
			if code != 1 {
				t.Fatalf("exit = %d, want 1 (fixture has findings)", code)
			}
			var rep struct {
				Version  int `json:"version"`
				Findings []struct {
					File     string `json:"file"`
					Analyzer string `json:"analyzer"`
				} `json:"findings"`
			}
			if err := json.Unmarshal([]byte(out), &rep); err != nil {
				t.Fatalf("-format json output is not valid JSON: %v\n%s", err, out)
			}
			if rep.Version != 1 || len(rep.Findings) != 4 {
				t.Fatalf("report = %+v, want version 1 with the fixture's 4 findings", rep)
			}
			for _, f := range rep.Findings {
				if f.Analyzer != "determinism" {
					t.Errorf("finding from %s leaked through -run %s", f.Analyzer, only)
				}
			}
		})
	}
}

func TestSARIFFormat(t *testing.T) {
	code, out, _ := capture(t, "-run", "determinism", "-format", "sarif", seedFixture)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var log map[string]any
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("-format sarif output is not valid JSON: %v", err)
	}
	if log["version"] != "2.1.0" {
		t.Fatalf("SARIF version = %v", log["version"])
	}
}

// TestBaselineFlow exercises the CI loop: accept the current findings
// with -write-baseline, then verify the next run is clean against it.
func TestBaselineFlow(t *testing.T) {
	base := filepath.Join(t.TempDir(), "lint.baseline.json")

	code, _, stderr := capture(t, "-run", "determinism", "-baseline", base, "-write-baseline", seedFixture)
	if code != 0 {
		t.Fatalf("-write-baseline exit = %d, want 0 (stderr: %s)", code, stderr)
	}
	if _, err := os.Stat(base); err != nil {
		t.Fatalf("baseline file not written: %v", err)
	}

	code, out, _ := capture(t, "-run", "determinism", "-baseline", base, seedFixture)
	if code != 0 {
		t.Fatalf("baselined run exit = %d, want 0; new findings:\n%s", code, out)
	}

	// Without the baseline the same findings fail the run.
	code, _, _ = capture(t, "-run", "determinism", seedFixture)
	if code != 1 {
		t.Fatalf("unbaselined run exit = %d, want 1", code)
	}
}

// TestTimings checks -timings prints an attribution line for the load,
// the whole-program index, and each analyzer.
func TestTimings(t *testing.T) {
	code, _, stderr := capture(t, "-run", "determinism", "-timings", seedFixture)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	for _, want := range []string{"meccvet: timing load", "meccvet: timing determinism", "meccvet: timing program"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("-timings stderr missing %q:\n%s", want, stderr)
		}
	}
}

func TestBadFlags(t *testing.T) {
	if code, _, _ := capture(t, "-format", "yaml"); code != 2 {
		t.Fatalf("-format yaml exit = %d, want 2", code)
	}
	if code, _, _ := capture(t, "-write-baseline"); code != 2 {
		t.Fatalf("-write-baseline without -baseline exit = %d, want 2", code)
	}
	if code, _, _ := capture(t, "-run", "nope"); code != 2 {
		t.Fatalf("-run nope exit = %d, want 2", code)
	}
}

// TestMissingBaselineFails pins the guard against a mistyped -baseline
// path: the run must fail fast (before any analysis) rather than
// silently running unbaselined and passing.
func TestMissingBaselineFails(t *testing.T) {
	absent := filepath.Join(t.TempDir(), "no-such-baseline.json")
	code, _, stderr := capture(t, "-baseline", absent, seedFixture)
	if code != 2 {
		t.Fatalf("missing -baseline file exit = %d, want 2 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "does not exist") {
		t.Fatalf("stderr does not name the missing baseline: %s", stderr)
	}
}
