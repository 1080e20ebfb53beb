package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
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

// TestSnapshotDeterministic runs the same exhibits twice and requires
// byte-identical output: the golden test above is only meaningful if
// the simulator is deterministic under a fixed seed. The Fig 7 pair
// fans its jobs out over two workers and also compares the -metrics-out
// exposition, so a series that parallel jobs write last-writer-wins
// fails it; only the exp_*_wall_seconds gauges may differ.
func TestSnapshotDeterministic(t *testing.T) {
	a := runMain(t, "-experiment", "day", "-scale", "50", "-seed", "1", "-summary=false")
	b := runMain(t, "-experiment", "day", "-scale", "50", "-seed", "1", "-summary=false")
	if a != b {
		t.Errorf("two identical runs diverged:\n%s", firstDiff(a, b))
	}

	fig7 := func() (section, exposition string) {
		path := filepath.Join(t.TempDir(), "fig7.prom")
		out := runMain(t, "-experiment", "fig7", "-scale", "4000", "-seed", "2",
			"-parallel", "2", "-metrics-out", path)
		start := strings.Index(out, "=== Fig 7")
		if start < 0 {
			t.Fatalf("no Fig 7 section in:\n%s", out)
		}
		section = out[start:]
		if end := strings.Index(section, "\n\n"); end >= 0 {
			section = section[:end]
		}
		prom, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var kept []string
		for _, line := range strings.Split(string(prom), "\n") {
			if !(strings.HasPrefix(line, "exp_") && strings.Contains(line, "_wall_seconds ")) {
				kept = append(kept, line)
			}
		}
		return section, strings.Join(kept, "\n")
	}
	secA, expA := fig7()
	secB, expB := fig7()
	if secA != secB {
		t.Errorf("two identical Fig 7 runs diverged:\n%s", firstDiff(secA, secB))
	}
	if expA != expB {
		t.Errorf("two identical Fig 7 metrics expositions diverged:\n%s", firstDiff(expA, expB))
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
