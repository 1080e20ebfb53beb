package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestMain lets the test binary serve as the library children the smoke
// test starts, as the benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := runChild(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestPhoneWeekSpec(t *testing.T) {
	s, err := scenario.LoadFile(filepath.Join("workloads", "phone-week.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.ValidateSet([]scenario.Spec{s}); err != nil {
		t.Fatal(err)
	}
	expanded := 0
	for _, p := range s.Phases {
		expanded += max(p.Repeat, 1)
	}
	if len(s.Phases) != 77 || expanded != 147 {
		t.Errorf("%d entries, %d phases after repeats; want 77 and 147", len(s.Phases), expanded)
	}
}

// TestReplayMatchesLive checks that the traced fig7-lib replay, which
// rebuilds each job's config and record stream outside the harness,
// reproduces every result Suite.Matrix computes.
func TestReplayMatchesLive(t *testing.T) {
	opts := experiments.Options{Scale: 20000, Seed: 7, Parallel: 2}
	suite, err := experiments.NewSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	live, err := suite.Matrix(fig7Schemes...)
	if err != nil {
		t.Fatal(err)
	}
	replayed, jobs, err := replayFig7(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(workload.All())*len(fig7Schemes) || len(jobs) != len(replayed) {
		t.Fatalf("%d results, %d jobs", len(replayed), len(jobs))
	}
	for i, got := range replayed {
		want := live[got.Benchmark][got.Scheme]
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		if string(a) != string(b) {
			t.Errorf("job %d (%s/%s): replay differs from the live run", i, got.Benchmark, got.Scheme)
		}
		if jobs[i].Records == 0 {
			t.Errorf("job %d generated no records", i)
		}
	}
	if replayed[3].Scheme != sim.SchemeMECC || replayed[4].Scheme != sim.SchemeBaseline {
		t.Error("replay is not in benchmark x scheme order")
	}
}

// TestSmoke runs the three library workloads at toy sizes, end to end
// and traced, and checks each report carries every metric BENCHMARK.json
// names, with its unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	// The test binary stands in for the reference build too.
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames[1:] {
		for trace, want := range [][]spec{bench.EndToEnd, bench.PerLayer} {
			c, err := parseFlags([]string{"--workload", w, "--seed", "3", "--seconds", "0",
				"--trace", fmt.Sprint(trace), "-smoke", "-work", t.TempDir(),
				"-ref-bench", self, "-ref-times", filepath.Join("reference", "times.json")})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := measure(c, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed", w, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", w, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestParseFlagsRejects(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "fig9"},
		{"--workload", "integrity", "--trace", "2"},
		{"--workload", "integrity", "--procs", "0"},
		{"--workload", "integrity", "extra"},
		{"--workload", "integrity", "-ref-times", filepath.Join("testdata", "missing.json")},
	} {
		if _, err := parseFlags(append([]string{"-ref-times", filepath.Join("reference", "times.json")}, args...)); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
}
