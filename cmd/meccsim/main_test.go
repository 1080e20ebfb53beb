package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/sim"
)

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
	os.Args = append([]string{"meccsim"}, args...)
	flag.CommandLine = flag.NewFlagSet("meccsim", flag.PanicOnError)
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

// TestSmokeCheckedJSON runs a small checked simulation and parses the
// JSON report — the run must finish with zero invariant violations
// (violations make run() return an error).
func TestSmokeCheckedJSON(t *testing.T) {
	out := runMain(t, "-bench", "libq", "-scheme", "mecc", "-scale", "20000", "-seed", "1", "-check", "-json")
	var res sim.Result
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if res.Benchmark != "libq" || res.Scheme != sim.SchemeMECC {
		t.Errorf("result header = %s/%v", res.Benchmark, res.Scheme)
	}
	if res.Instructions == 0 || res.IPC <= 0 {
		t.Errorf("empty run: %+v", res)
	}
}

func TestSmokeTextReport(t *testing.T) {
	out := runMain(t, "-bench", "gcc", "-scheme", "ecc6", "-scale", "20000")
	for _, want := range []string{"benchmark", "IPC", "energy", "EDP"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeList(t *testing.T) {
	out := runMain(t, "-list")
	if !strings.Contains(out, "libq") || !strings.Contains(out, "gcc") {
		t.Errorf("benchmark list incomplete:\n%s", out)
	}
}

// TestRejectsNegativeFlags: a negative decode latency or flight window
// fails the run with an error naming the flag, before any report
// prints; at -declat -5 ECC-6 would out-run a run with no decode
// latency at all.
func TestRejectsNegativeFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-scheme", "ecc6", "-declat", "-5"},
		{"-flight", "-5"},
	} {
		out, err := runCLI(t, append([]string{"-bench", "libq", "-scale", "20000"}, args...)...)
		if err == nil || !strings.Contains(err.Error(), args[len(args)-2]) {
			t.Errorf("%v: error %v, want one naming %s", args, err, args[len(args)-2])
		}
		if out != "" {
			t.Errorf("%v printed a report before failing:\n%s", args, out)
		}
	}
}

// TestTimelineNeedsFlight: the timeline draws its SMD intervals from
// the flight recorder, so -timeline with -flight 0 is an error.
func TestTimelineNeedsFlight(t *testing.T) {
	if _, err := runCLI(t, "-bench", "libq", "-scale", "20000", "-timeline", "-flight", "0"); err == nil {
		t.Fatal("-timeline -flight 0: want an error")
	}
}
