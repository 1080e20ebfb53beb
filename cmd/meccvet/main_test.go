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

// seedFixture is a fixture package with known seedflow findings.
const seedFixture = "../../internal/analysis/testdata/src/seed"

func TestListCoversAllAnalyzers(t *testing.T) {
	code, out, _ := capture(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 14 {
		t.Fatalf("-list printed %d analyzers, want 14:\n%s", len(lines), out)
	}
	for _, name := range []string{"concsafety", "seedflow", "hotclosure", "unitflow", "atomicfield", "seqlock", "cyclewrap", "hotescape"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %s", name)
		}
	}
}

func TestJSONFormat(t *testing.T) {
	code, out, _ := capture(t, "-run", "seedflow", "-format", "json", seedFixture)
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
	if rep.Version != 1 || len(rep.Findings) == 0 {
		t.Fatalf("report = %+v, want version 1 with findings", rep)
	}
	for _, f := range rep.Findings {
		if f.Analyzer != "seedflow" {
			t.Errorf("finding from %s leaked through -run seedflow", f.Analyzer)
		}
	}
}

func TestSARIFFormat(t *testing.T) {
	code, out, _ := capture(t, "-run", "seedflow", "-format", "sarif", seedFixture)
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

	code, _, stderr := capture(t, "-run", "seedflow", "-baseline", base, "-write-baseline", seedFixture)
	if code != 0 {
		t.Fatalf("-write-baseline exit = %d, want 0 (stderr: %s)", code, stderr)
	}
	if _, err := os.Stat(base); err != nil {
		t.Fatalf("baseline file not written: %v", err)
	}

	code, out, _ := capture(t, "-run", "seedflow", "-baseline", base, seedFixture)
	if code != 0 {
		t.Fatalf("baselined run exit = %d, want 0; new findings:\n%s", code, out)
	}

	// Without the baseline the same findings fail the run.
	code, _, _ = capture(t, "-run", "seedflow", seedFixture)
	if code != 1 {
		t.Fatalf("unbaselined run exit = %d, want 1", code)
	}
}

// TestCacheGolden pins the fact-cache contract end to end: a cold run
// populates the cache, the warm run replays from metadata alone, and
// the rendered findings are byte-identical between the two.
func TestCacheGolden(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "factcache")

	coldCode, coldOut, coldErr := capture(t, "-run", "seedflow", "-cache-dir", dir, seedFixture)
	if coldCode != 1 {
		t.Fatalf("cold exit = %d, want 1 (stderr: %s)", coldCode, coldErr)
	}
	if !strings.Contains(coldErr, "cache: 0/1 packages warm") {
		t.Fatalf("cold run stderr missing cache stats: %s", coldErr)
	}

	warmCode, warmOut, warmErr := capture(t, "-run", "seedflow", "-cache-dir", dir, seedFixture)
	if warmCode != coldCode {
		t.Fatalf("warm exit = %d, cold = %d", warmCode, coldCode)
	}
	if warmOut != coldOut {
		t.Errorf("warm findings differ from cold:\ncold:\n%s\nwarm:\n%s", coldOut, warmOut)
	}
	if !strings.Contains(warmErr, "cache: 1/1 packages warm (metadata only, no type-check)") {
		t.Fatalf("warm run did not take the fast path: %s", warmErr)
	}
}

// TestTimings checks -timings prints an attribution line per analyzer.
func TestTimings(t *testing.T) {
	code, _, stderr := capture(t, "-run", "seedflow", "-timings", seedFixture)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	for _, want := range []string{"meccvet: timing seedflow", "meccvet: timing program"} {
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
