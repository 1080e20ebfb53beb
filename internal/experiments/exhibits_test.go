package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/bch"
	"repro/internal/checker"
	"repro/internal/obs"
)

// matrixScale and matrixTrials size each pass over the registry: coarse
// enough that thirteen passes take a few seconds.
const (
	matrixScale  = 40000
	matrixTrials = 1000
)

// matrixConfig is one way to run the registry: harness workers,
// telemetry, checkers and controller stepping.
type matrixConfig struct {
	parallel int
	// telemetry is "nil" (no recorder), "default" (paperbench's defaults:
	// flight window and progress, with the bch and batch observers) or
	// "traced" (the default plus a streamed trace log of every kind).
	telemetry string
	check     bool
	// legacy runs the controller's per-cycle reference stepping instead
	// of its jumps.
	legacy bool
}

func (c matrixConfig) String() string {
	return fmt.Sprintf("{parallel %d, telemetry %s, check %t, legacy %t}", c.parallel, c.telemetry, c.check, c.legacy)
}

// matrixRun is what one pass printed: each exhibit's sections as
// paperbench prints them, and the Prometheus exposition of the recorder
// ("" without one).
type matrixRun struct {
	text map[string]string
	prom string
}

// runRegistry runs every exhibit in order on one suite under c, as
// paperbench -experiment all does, and fails the test on a checker
// violation.
func runRegistry(t *testing.T, c matrixConfig) matrixRun {
	t.Helper()
	opts := Options{Scale: matrixScale, Seed: 1, Parallel: c.parallel, legacyStepping: c.legacy}
	if c.telemetry != "nil" {
		rec, _, _ := defaultTelemetry()
		if c.telemetry == "traced" {
			elog := obs.NewEventLog(obs.MaskAll, 0)
			elog.SetStream(io.Discard)
			rec.AddEventLog(elog)
		}
		bch.SetObserver(rec)
		defer bch.SetObserver(nil)
		batch.SetObserver(rec)
		defer batch.SetObserver(nil)
		opts.Obs = rec
	}
	if c.check {
		opts.Check = checker.NewSuite()
	}
	s, err := NewSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	run := matrixRun{text: map[string]string{}}
	for _, e := range Exhibits() {
		sections, err := e.Run(s, matrixTrials)
		if err != nil {
			t.Fatalf("%s under %v: %v", e.Name, c, err)
		}
		var b strings.Builder
		for _, sec := range sections {
			fmt.Fprintf(&b, "\n=== %s ===\n%s", sec.Title, sec.Body)
		}
		run.text[e.Name] = b.String()
	}
	if opts.Check != nil {
		if err := opts.Check.Err(); err != nil {
			t.Errorf("under %v: %v", c, err)
		}
	}
	if opts.Obs != nil {
		if err := opts.Obs.Flush(); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := opts.Obs.Registry().WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		run.prom = b.String()
	}
	return run
}

// TestExhibitMatrix holds "same seed, same bytes" on every exhibit: each
// must print the same sections at 1 and 2 workers, with no recorder,
// paperbench's default telemetry or a full trace, with checkers off and
// on, with the controller's jumps or its per-cycle reference stepping,
// and twice in a row under the first configuration. Every pass with
// telemetry must export the same metrics, and no checker may fire.
// -short runs four configurations that between them take every value
// of every axis.
func TestExhibitMatrix(t *testing.T) {
	var configs []matrixConfig
	for _, p := range []int{1, 2} {
		for _, tel := range []string{"nil", "default", "traced"} {
			for _, check := range []bool{false, true} {
				configs = append(configs, matrixConfig{p, tel, check, false})
			}
		}
	}
	legacy := matrixConfig{2, "default", true, true}
	configs = append(configs, configs[0], legacy)
	if testing.Short() {
		configs = []matrixConfig{{1, "nil", false, false}, {2, "default", true, false}, {1, "traced", true, false}, legacy}
	}

	ref := runRegistry(t, configs[0])
	var promRef string
	var promCfg matrixConfig
	for _, c := range configs[1:] {
		run := runRegistry(t, c)
		for _, e := range Exhibits() {
			if got, want := run.text[e.Name], ref.text[e.Name]; got != want {
				t.Errorf("%s prints differently under %v than under %v:\n%s", e.Name, c, configs[0], firstDiff(got, want))
			}
		}
		switch {
		case run.prom == "":
		case promRef == "":
			promRef, promCfg = run.prom, c
		case run.prom != promRef:
			t.Errorf("metrics exposition under %v differs from %v:\n%s", c, promCfg, firstDiff(run.prom, promRef))
		}
	}
	if promRef == "" {
		t.Error("no configuration exported metrics")
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
