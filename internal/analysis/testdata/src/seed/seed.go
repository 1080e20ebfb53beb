// Package seed is the seed-provenance fixture: rand sources built from
// traceable run-config seeds, from tainted nondeterministic values, and
// from plain parameters whose call sites are vetted through the call
// graph.
package seed

import (
	"math/rand"
	"time"
)

// WallClock seeds from the wall clock — the classic determinism bug.
func WallClock() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `rand source seed derives from the wall clock \(time.Now\)`
}

// GlobalRand launders the process-global source into a new one.
func GlobalRand() *rand.Rand {
	return rand.New(rand.NewSource(rand.Int63())) // want `rand source seed derives from the process-global math/rand source`
}

// config is a run configuration whose integer field is not seed-named.
type config struct{ iterations int64 }

// Opaque seeds from an untraceable value.
func Opaque(cfg config) *rand.Rand {
	v := cfg.iterations
	return rand.New(rand.NewSource(v)) // want `rand source seed is not provenance-traceable to a run-config seed`
}

// FromSeed is the sanctioned pattern: a *seed*-named parameter.
func FromSeed(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Fixed seeds from a constant: reproducible by construction.
func Fixed() *rand.Rand {
	return rand.New(rand.NewSource(42))
}

// derive is a sanctioned seed-derivation helper: its results carry
// run-config provenance wherever they flow.
//
//meccvet:seed
func derive(base int64, worker int) int64 {
	return base + int64(worker)*1000003
}

// PerWorker builds a per-worker source from the derived seed.
func PerWorker(seed int64, worker int) *rand.Rand {
	return rand.New(rand.NewSource(derive(seed, worker)))
}

// mix forwards provenance through arithmetic: param joined with a
// constant stays that parameter, so call sites are still checked.
func mix(base int64) int64 { return base*6364136223846793005 + 1 }

// newRig's n parameter is a plain (non-seed-named) value, so every call
// site of newRig is vetted; the finding reports at the sink and names
// the offending call site.
func newRig(n int64) *rand.Rand {
	return rand.New(rand.NewSource(mix(n))) // want `rand source seed flows from parameter n, which receives a value derived from the wall clock \(time.Now\) at .*seed.go:\d+`
}

// BadCaller hands newRig a wall-clock value two packages of indirection
// would not hide.
func BadCaller() *rand.Rand {
	return newRig(time.Now().UnixNano())
}

// GoodCaller hands newRig a real seed: this call site is clean, so only
// BadCaller's produces a finding.
func GoodCaller(seed int64) *rand.Rand {
	return newRig(seed)
}

// Suppressed documents a deliberate wall-clock seed in a fixture tool.
func Suppressed() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) //meccvet:allow determinism -- fixture: interactive demo, determinism not required
}
