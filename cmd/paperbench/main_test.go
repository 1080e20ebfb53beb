package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// snapshotExhibits are the deterministic exhibits pinned by the golden
// snapshot: the analytic tables/figures plus the phase-pattern day
// simulation. Wall-clock-dependent output (-summary) stays off.
const snapshotExhibits = "table1,fig2,fig8,modes,capacity,day"

// runMain invokes run() with a fresh flag set and the given arguments,
// capturing stdout; a run error fails the test.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	out, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out
}

// runCLI invokes run() with a fresh flag set and the given arguments,
// returning its stdout and error.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	os.Args = append([]string{"paperbench"}, args...)
	flag.CommandLine = flag.NewFlagSet("paperbench", flag.PanicOnError)
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outc := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		outc <- string(b)
	}()
	runErr := run()
	w.Close()
	os.Stdout = old
	os.Args, flag.CommandLine = oldArgs, oldFlags
	return <-outc, runErr
}

// TestSnapshotScale50 diffs the -scale 50 -seed 1 exhibit output against
// the committed golden summary, so a refactor that silently changes
// results fails loudly. Regenerate with `go test -update` — and eyeball
// the diff first: a changed golden IS a changed result.
func TestSnapshotScale50(t *testing.T) {
	out := runMain(t, "-experiment", snapshotExhibits,
		"-scale", "50", "-seed", "1", "-summary=false", "-check")
	golden := filepath.Join("testdata", "snapshot_scale50.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("exhibit output diverged from %s (run `go test -update` only if the change is intended)\n%s",
			golden, firstDiff(out, string(want)))
	}
}

// firstDiff renders the first differing line of two outputs.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return "line " + strconv.Itoa(i+1) + ":\n got: " + g[i] + "\nwant: " + w[i]
		}
	}
	return "lengths differ: got " + strconv.Itoa(len(g)) + " lines, want " + strconv.Itoa(len(w))
}

// TestTimelineNeedsFlight: the timeline draws its SMD intervals from
// the flight recorder, so -timeline with -flight 0 is an error.
func TestTimelineNeedsFlight(t *testing.T) {
	if _, err := runCLI(t, "-experiment", "table1", "-timeline", "-flight", "0"); err == nil {
		t.Fatal("-timeline -flight 0: want an error")
	}
}

// TestRejectsBadCommandLine: a misspelt exhibit name, or an integrity
// trial count below 1, fails the run before any section prints.
func TestRejectsBadCommandLine(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "table2,tabel4"},
		{"-experiment", "table2,integrity", "-integrity-trials", "0"},
	} {
		out, err := runCLI(t, args...)
		if !errors.Is(err, experiments.ErrBadOptions) {
			t.Errorf("%v: error %v, want one wrapping ErrBadOptions", args, err)
		}
		if strings.Contains(out, "===") {
			t.Errorf("%v printed a section before failing:\n%s", args, out)
		}
	}
}

// TestListMatchesRegistry: -list names every exhibit -experiment
// accepts, in the order -experiment all runs them.
func TestListMatchesRegistry(t *testing.T) {
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(runMain(t, "-list")), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}
	var want []string
	for _, e := range experiments.Exhibits() {
		want = append(want, e.Name)
	}
	if strings.Join(listed, ",") != strings.Join(want, ",") {
		t.Errorf("-list names %v, want %v", listed, want)
	}
}

// TestChart: -chart draws Fig 7's bars after its table.
func TestChart(t *testing.T) {
	out := runMain(t, "-experiment", "fig7", "-chart", "-scale", "40000", "-summary=false")
	table := strings.Index(out, "=== Fig 7")
	chart := strings.Index(out, "\nALL      SECDED #")
	if table < 0 || chart < table {
		t.Errorf("want the Fig 7 table, then a bar chart with the ALL bars:\n%s", out)
	}
}
