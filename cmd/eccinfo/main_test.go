package main

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"
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
	os.Args = append([]string{"eccinfo"}, args...)
	flag.CommandLine = flag.NewFlagSet("eccinfo", flag.PanicOnError)
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

func TestSmoke(t *testing.T) {
	out := runMain(t, "-demo", "ecc6", "-errors", "6", "-seed", "1")
	for _, want := range []string{"Codec registry", "generator polynomials", "t=6", "Demo: ecc6 with 6 injected errors"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeSECDED(t *testing.T) {
	out := runMain(t, "-demo", "secded-line", "-errors", "1")
	if !strings.Contains(out, "Demo: secded-line with 1 injected errors") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// TestRejectsNegativeErrors: a negative error count fails with an error
// naming the flag instead of injecting nothing and reporting a clean
// correction.
func TestRejectsNegativeErrors(t *testing.T) {
	out, err := runCLI(t, "-errors", "-1")
	if err == nil || !strings.Contains(err.Error(), "-errors") {
		t.Fatalf("-errors -1: error %v, want one naming -errors", err)
	}
	if out != "" {
		t.Errorf("-errors -1 printed before failing:\n%s", out)
	}
}
