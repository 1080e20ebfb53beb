// Package morphecc is a Go reproduction of "Reducing Refresh Power in
// Mobile Devices with Morphable ECC" (Chou, Nair, Qureshi — DSN 2015).
//
// Morphable ECC (MECC) keeps DRAM lines protected by a 6-error-correcting
// BCH code while a mobile device idles — allowing the refresh period to
// stretch 16x from 64 ms to 1 s and nearly halving memory idle power —
// and lazily converts lines to a 2-cycle SECDED code on first touch when
// the device wakes, so active-mode performance stays within ~2% of an
// unprotected system.
//
// The package is a façade over the full simulation stack:
//
//   - internal/gf2, internal/bch, internal/hamming, internal/ecc — real,
//     tested ECC codecs (GF(2^10) BCH up to t=6, (72,64) and line-level
//     SECDED) plus the morphable Fig. 6 line layout;
//   - internal/dram, internal/memctrl, internal/power — a cycle-level
//     LPDDR channel model with FR-FCFS scheduling, refresh and
//     power-down, and the Micron-methodology power calculator;
//   - internal/retention, internal/reliability — the retention-failure
//     model (Fig. 2) and the analytic Table I;
//   - internal/core — the MECC controller with MDT and SMD;
//   - internal/workload, internal/cpu, internal/sim — 28 SPEC2006-
//     calibrated synthetic workloads driven through an in-order core;
//   - internal/experiments — regenerates every table and figure of the
//     paper's evaluation.
//
// Quick start:
//
//	res, err := morphecc.Run("libq", morphecc.MECC, morphecc.DefaultOptions())
//	fmt.Println(res.IPC)
//
// The cmd/paperbench tool prints every table and figure; see DESIGN.md
// and EXPERIMENTS.md for the experiment index and measured numbers.
package morphecc

import (
	"repro/internal/ecc"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Scheme selects the error-protection scheme to simulate.
type Scheme = sim.SchemeKind

// Schemes compared in the paper.
const (
	// Baseline is no error correction.
	Baseline = sim.SchemeBaseline
	// SECDED always uses the weak code (2-cycle decode).
	SECDED = sim.SchemeSECDED
	// ECC6 always uses the strong code (30-cycle decode).
	ECC6 = sim.SchemeECC6
	// MECC is Morphable ECC.
	MECC = sim.SchemeMECC
)

// Options alias the experiment harness options (Scale divides the
// paper's 4-billion-instruction slices).
type Options = experiments.Options

// Result aliases the simulator's per-run figures of merit.
type Result = sim.Result

// Profile aliases a synthetic workload profile.
type Profile = workload.Profile

// Codec aliases the line-granularity ECC interface.
type Codec = ecc.Codec

// Morphable aliases the Fig. 6 morphable line codec.
type Morphable = ecc.Morphable

// DefaultOptions returns the default harness scale (1/400 of the paper's
// slice lengths, with footprints scaled to match).
func DefaultOptions() Options { return experiments.DefaultOptions() }

// Benchmarks lists the 28 workload names in the paper's Fig. 7 order.
func Benchmarks() []string { return workload.Names() }

// ProfileByName looks up one workload profile.
func ProfileByName(name string) (Profile, error) { return workload.ByName(name) }

// Run simulates one benchmark under one scheme at the given scale and
// returns its figures of merit. opts' recorder and checkers, when set,
// are attached to the run.
func Run(benchmark string, scheme Scheme, opts Options) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	prof, err := workload.ByName(benchmark)
	if err != nil {
		return Result{}, err
	}
	return sim.RunBenchmark(prof.Scaled(opts.Scale), opts.SimConfig(scheme))
}

// RunProfile simulates a custom workload profile, as given (unscaled),
// with opts' slice length, seed, recorder and checkers.
func RunProfile(prof Profile, scheme Scheme, opts Options) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	return sim.RunBenchmark(prof, opts.SimConfig(scheme))
}

// NewMorphableCodec builds the paper's codec pair (line SECDED weak,
// BCH ECC-6 strong) in the Fig. 6 layout, for direct encode/decode use.
func NewMorphableCodec() (*Morphable, error) { return ecc.NewDefaultMorphable() }

// CodecByName builds a single codec from its registry name ("none",
// "secded-word", "secded-line", "ecc1".."ecc6", extended "ecc6x").
func CodecByName(name string) (Codec, error) { return ecc.ByName(name) }

// The headline experiments, re-exported for library users; the full set
// (every table/figure, ablations, related work) lives in
// internal/experiments and is reachable through cmd/paperbench.

// TableI returns the paper's reliability table: per-line and per-system
// failure probability for ECC-0..6 at the 1 s-refresh bit error rate.
func TableI() (experiments.TableIResult, error) { return experiments.TableI() }

// Fig7 runs the headline performance comparison (SECDED / ECC-6 / MECC
// normalized IPC across the 28-benchmark suite) at the given scale.
func Fig7(opts Options) (experiments.Fig7Result, error) {
	s, err := experiments.NewSuite(opts)
	if err != nil {
		return experiments.Fig7Result{}, err
	}
	return experiments.Fig7(s)
}

// Fig8 returns the idle-mode power comparison (analytic; scale-free).
func Fig8() (experiments.Fig8Result, error) { return experiments.Fig8() }

// RelatedWork compares RAIDR / Flikker / SECRET / MECC on refresh rate,
// idle power and VRT robustness.
func RelatedWork(seed int64) (experiments.RelatedWorkResult, error) {
	return experiments.RelatedWork(seed)
}

// Integrity runs the end-to-end fault-injection Monte Carlo through the
// real codecs (stressBER 0 = the paper's idle-mode BER). A stressBER that
// is NaN, negative or above 1 is rejected with an error wrapping
// experiments.ErrBadOptions.
func Integrity(trials int, stressBER float64, seed int64) (experiments.IntegrityResult, error) {
	return experiments.Integrity(trials, stressBER, seed)
}
