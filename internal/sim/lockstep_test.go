package sim

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/checker"
	"repro/internal/dram"
)

// TestRunBenchmarksMatchesRunners steps six configs of one stream in
// lockstep — every scheme, a checkpointed run, a slower strong decoder,
// SMD, the prefetcher and invariant checkers among them — and requires
// each result to equal a lone Runner.Run over its own generator. The
// budget spans many stream chunks.
func TestRunBenchmarksMatchesRunners(t *testing.T) {
	prof := mustProfile(t, "milc").Scaled(testScale)
	var cfgs []Config
	for _, k := range []SchemeKind{SchemeBaseline, SchemeSECDED, SchemeECC6, SchemeMECC} {
		cfgs = append(cfgs, DefaultConfig(k, testInstrs))
	}
	cfgs[1].CheckpointEvery = testInstrs / 8
	cfgs[2].StrongDecodeCycles = 60
	cfgs[3].MECC.SMDEnabled = true
	cfgs[3].MECC.SMDWindowCycles = 50_000
	mecc := DefaultConfig(SchemeMECC, testInstrs)
	mecc.NextLinePrefetch = true
	mecc.Check = checker.NewSuite()
	cfgs = append(cfgs, mecc, DefaultConfig(SchemeMECC, testInstrs))

	got, err := RunBenchmarks(prof, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cfgs) {
		t.Fatalf("%d results for %d configs", len(got), len(cfgs))
	}
	for i, cfg := range cfgs {
		if cfg.Check != nil {
			failOnViolations(t, cfg.Check)
			cfg.Check = checker.NewSuite()
		}
		r, err := NewRunner(prof, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("config %d (%s): lockstep result differs from its lone run", i, cfg.Scheme)
		}
	}
	if n := got[1].Checkpoints; len(n) != 8 {
		t.Errorf("checkpointed config recorded %d checkpoints, want 8", len(n))
	}
}

// TestRunBenchmarksRejectsMismatchedStreams requires ErrStreamMismatch
// whenever a config's seed, instruction budget or DRAM size differs from
// the first, before any runner is built.
func TestRunBenchmarksRejectsMismatchedStreams(t *testing.T) {
	prof := mustProfile(t, "gcc").Scaled(testScale)
	base := DefaultConfig(SchemeBaseline, 10_000)
	for _, c := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"seed", func(c *Config) { c.Seed = 2 }},
		{"instructions", func(c *Config) { c.Instructions = 20_000 }},
		{"dram size", func(c *Config) { c.DRAM.Ranks = 2 }},
	} {
		other := base
		c.mutate(&other)
		if _, err := RunBenchmarks(prof, []Config{base, other}); !errors.Is(err, ErrStreamMismatch) {
			t.Errorf("%s: err = %v, want ErrStreamMismatch", c.name, err)
		}
	}
	// A different scheme, mapping or decode latency replays the same
	// stream and is accepted.
	other := DefaultConfig(SchemeMECC, 10_000)
	other.DRAM.Mapping = dram.MapBankRowCol
	other.StrongDecodeCycles = 45
	if _, err := RunBenchmarks(prof, []Config{base, other}); err != nil {
		t.Errorf("same stream: %v", err)
	}
	if res, err := RunBenchmarks(prof, nil); err != nil || len(res) != 0 {
		t.Errorf("no configs: %v, %v", res, err)
	}
}
