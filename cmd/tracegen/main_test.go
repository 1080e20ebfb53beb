package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
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
	os.Args = append([]string{"tracegen"}, args...)
	flag.CommandLine = flag.NewFlagSet("tracegen", flag.PanicOnError)
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

func TestSmokeTextToStdout(t *testing.T) {
	out := runMain(t, "-bench", "gcc", "-instructions", "2000", "-seed", "1")
	recs, err := trace.ReadText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("output is not a valid text trace: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("empty trace")
	}
}

func TestSmokeBinaryFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.bin")
	runMain(t, "-bench", "libq", "-instructions", "2000", "-format", "bin", "-o", path)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	br, err := trace.NewBinaryReader(f)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := br.Next(); !ok {
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("empty binary trace")
	}
}

// TestRejectsBadFlags: an instruction budget or scale below 1, or a
// negative cache size, fails with an error naming the flag instead of
// writing an empty trace or running as if the flag were unset.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-instructions", "-5"},
		{"-instructions", "0"},
		{"-scale", "0"},
		{"-scale", "-1"},
		{"-cache", "-1"},
	} {
		out, err := runCLI(t, args...)
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%v: error %v, want one naming %s", args, err, args[0])
		}
		if out != "" {
			t.Errorf("%v wrote %d bytes of trace before failing", args, len(out))
		}
	}
}
