package sim

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/memctrl"
	"repro/internal/workload"
)

// marshalResult flattens a Result (including nested DRAM/controller/MECC
// stats and the full energy breakdown) for exhaustive comparison.
func marshalResult(t *testing.T, res Result) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestJumpSteppingMatchesLegacyEndToEnd is the top-level jump-vs-legacy
// differential: full benchmark slices must produce byte-identical
// Results with the controller's fast-forward jumps on and off. This covers the
// whole stack — trace generation, scheme decisions, controller
// scheduling, refresh, power-down residency, and the energy model —
// so any cycle-accounting drift introduced by jumping shows up as a
// diff in cycles, stats, or energy.
func TestJumpSteppingMatchesLegacyEndToEnd(t *testing.T) {
	cases := []struct {
		name   string
		bench  string
		k      SchemeKind
		mutate func(*Config)
	}{
		{"gcc-mecc", "gcc", SchemeMECC, nil},
		{"libq-baseline", "libq", SchemeBaseline, nil},
		{"libq-ecc6", "libq", SchemeECC6, nil},
		// Compute-bound: long inter-miss gaps are the jump-heavy case.
		{"povray-mecc", "povray", SchemeMECC, nil},
		// Power-down entry on the idle jump's first cycle, behind nearly
		// every lone request.
		{"povray-mecc-pd1", "povray", SchemeMECC, func(c *Config) { c.Ctrl.PowerDownIdle = 1 }},
		{"gcc-prefetch", "gcc", SchemeBaseline, func(c *Config) { c.NextLinePrefetch = true }},
		// A one-entry read queue: a queued prefetch fills it, and the
		// demand read waits for the prefetch's RD to free the slot.
		{"gcc-prefetch-readq1", "gcc", SchemeBaseline, func(c *Config) {
			c.NextLinePrefetch = true
			c.Ctrl.ReadQueueCap = 1
		}},
		{"gcc-closedpage", "gcc", SchemeSECDED, func(c *Config) { c.Ctrl.PagePolicy = memctrl.ClosedPage }},
		// The busy edge's branches: the per-bank refresh slot, the FCFS
		// queue and the write-drain queue selection.
		{"gcc-mecc-perbank", "gcc", SchemeMECC, func(c *Config) { c.Ctrl.PerBankRefresh = true }},
		{"libq-baseline-fcfs", "libq", SchemeBaseline, func(c *Config) { c.Ctrl.FCFS = true }},
		{"lbm-mecc", "lbm", SchemeMECC, nil},
		// Write-heavy: lone writes and reads queued behind writes, with
		// power-down entry two idle cycles out.
		{"lbm-baseline-pd2", "lbm", SchemeBaseline, func(c *Config) { c.Ctrl.PowerDownIdle = 2 }},
		{"lbm-secded-perbank-prefetch", "lbm", SchemeSECDED, func(c *Config) {
			c.Ctrl.PerBankRefresh = true
			c.NextLinePrefetch = true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(legacy bool) []byte {
				prof, err := workload.ByName(tc.bench)
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig(tc.k, testInstrs/2)
				cfg.Ctrl.LegacyStepping = legacy
				if tc.mutate != nil {
					tc.mutate(&cfg)
				}
				res, err := RunBenchmark(prof.Scaled(testScale), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return marshalResult(t, res)
			}
			ref := run(true)
			fast := run(false)
			if !bytes.Equal(fast, ref) {
				t.Errorf("results diverged\nfast: %s\nref:  %s", fast, ref)
			}
		})
	}
}

// TestJumpSteppingMatchesLegacyPhases extends the differential across
// idle/active phase transitions: drain, upgrade sweep, self refresh,
// wake-up, and refresh resync all move the clocks outside the
// controller's Step loop, and the jump paths must stay exact across
// those external jumps.
func TestJumpSteppingMatchesLegacyPhases(t *testing.T) {
	run := func(legacy bool) []byte {
		prof, err := workload.ByName("sphinx")
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(SchemeMECC, testInstrs/4)
		cfg.Ctrl.LegacyStepping = legacy
		r, err := NewRunner(prof.Scaled(testScale), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := r.RunActive(testInstrs / 8); err != nil {
				t.Fatal(err)
			}
			if err := r.GoIdle(20 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if err := r.WakeUp(); err != nil {
				t.Fatal(err)
			}
		}
		return marshalResult(t, r.Result())
	}
	ref := run(true)
	fast := run(false)
	if !bytes.Equal(fast, ref) {
		t.Errorf("phase-pattern results diverged\nfast: %s\nref:  %s", fast, ref)
	}
}

// TestJumpSteppingKeepsWritebackCadence pins the one-writeback-per-cycle
// flush under jumping. With the prefetcher on, consecutive
// prefetch-buffer hits queue downgrade writebacks without stepping
// DRAM, so a flush can leave one pending while the write queue still
// has room; per-cycle stepping enqueues it on the next cycle, and a jump
// over that cycle delays it. milc under MECC at scale 400 hits this.
func TestJumpSteppingKeepsWritebackCadence(t *testing.T) {
	prof, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	run := func(legacy bool) []byte {
		cfg := DefaultConfig(SchemeMECC, 2_000_000)
		cfg.NextLinePrefetch = true
		cfg.Ctrl.LegacyStepping = legacy
		res, err := RunBenchmark(prof.Scaled(400), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return marshalResult(t, res)
	}
	ref := run(true)
	fast := run(false)
	if !bytes.Equal(fast, ref) {
		t.Errorf("results diverged\nfast: %s\nref:  %s", fast, ref)
	}
}
