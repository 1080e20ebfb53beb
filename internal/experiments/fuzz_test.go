package experiments

import (
	"errors"
	"math"
	"testing"

	"repro/internal/sim"
)

// FuzzOptions holds the harness options to their contract on
// fuzz-chosen scales, worker counts and seeds: nothing panics, Validate
// and NewSuite agree and their rejections wrap ErrBadOptions, and for
// accepted options every scheme's SimConfig passes sim.Config.Validate
// with a budget of at least one instruction and an SMD window of at
// least one cycle.
func FuzzOptions(f *testing.F) {
	def := DefaultOptions()
	f.Add(def.Scale, def.Parallel, def.Seed)
	f.Add(1, 1, int64(2))
	f.Add(math.MaxInt, math.MaxInt, int64(math.MaxInt64))
	f.Add(0, 0, int64(0))
	f.Add(-1, -1, int64(-1))
	f.Add(math.MinInt, 2, int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, scale, parallel int, seed int64) {
		opts := Options{Scale: scale, Parallel: parallel, Seed: seed}
		verr := opts.Validate()
		if verr != nil && !errors.Is(verr, ErrBadOptions) {
			t.Fatalf("Validate(%+v) = %v, want an ErrBadOptions wrap", opts, verr)
		}
		suite, err := NewSuite(opts)
		if (err == nil) != (verr == nil) || err != nil && !errors.Is(err, ErrBadOptions) {
			t.Fatalf("NewSuite(%+v) error %v, Validate error %v", opts, err, verr)
		}
		if verr != nil {
			return
		}
		if suite.Options() != opts {
			t.Fatalf("suite options %+v, want %+v", suite.Options(), opts)
		}
		for k := sim.SchemeBaseline; k <= sim.SchemeMECC; k++ {
			cfg := opts.SimConfig(k)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%v SimConfig at %+v: %v", k, opts, err)
			}
			if cfg.Instructions < 1 || cfg.MECC.SMDWindowCycles < 1 || cfg.Seed != seed || cfg.Scheme != k {
				t.Fatalf("%v SimConfig at %+v: instructions %d, SMD window %d, seed %d, scheme %v",
					k, opts, cfg.Instructions, cfg.MECC.SMDWindowCycles, cfg.Seed, cfg.Scheme)
			}
		}
	})
}
