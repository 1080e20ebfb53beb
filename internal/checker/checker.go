// Package checker provides pluggable run-time invariant checkers for the
// simulator, wired through sim/memctrl/dram/core behind nil-safe hooks in
// the same style as internal/obs: a nil tracker costs one branch per hook
// and performs no work, so the default (unchecked) configuration keeps
// the hot paths on their zero-allocation no-op branches and results stay
// bit-identical.
//
// The invariants pinned here are the paper's structural claims, checked
// against independently tracked shadow state rather than the subsystem's
// own counters:
//
//   - refresh-ratio: auto-refresh issue counts must match the configured
//     period (tREFI << shift, divided across banks for REFpb), and idle
//     self-refresh pulses must reflect the scheme's divider (64 ms vs 1 s
//     ⇒ 16x fewer pulses at divider 4);
//   - mdt-superset: the MDT bitmap must mark every region that actually
//     contains a downgraded line when the upgrade sweep starts;
//   - smd-gating: SMD may only enable ECC-Downgrade when a sampled MPKC
//     exceeds the configured threshold;
//   - ecc-transition: a line may go strong→weak only by an active-mode
//     access while downgrades are enabled, and weak→strong only via the
//     idle-entry upgrade sweep;
//   - energy/cycles: energy components must be non-negative, sum to the
//     reported total, grow monotonically across phases, and state
//     residency must account for every DRAM cycle exactly once.
//
// The package also hosts the deterministic fault-injection layer
// (fault.go) that drives the checkers and the graceful-degradation tests.
package checker

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrInvariant is wrapped by Suite.Err when any violation was recorded.
var ErrInvariant = errors.New("checker: invariant violated")

// maxViolations bounds how many violations a suite retains; a broken
// invariant in a hot loop would otherwise accumulate millions of
// identical records.
const maxViolations = 64

// Violation is one recorded invariant breach.
type Violation struct {
	// Invariant names the broken rule (e.g. "refresh-ratio").
	Invariant string
	// At is the cycle (clock domain depends on the invariant) at which
	// the breach was detected.
	At uint64
	// Detail is a human-readable description.
	Detail string
	// Context is the suite's context label at report time (see
	// SetContext): typically "scenario/phase" for scenario-driven runs,
	// empty for plain runs. A sim-time alone does not say which phase of
	// a multi-phase workload was executing; the label does.
	Context string
}

// String renders the violation for logs and test failures.
func (v Violation) String() string {
	if v.Context != "" {
		return fmt.Sprintf("[%s] %s@%d: %s", v.Context, v.Invariant, v.At, v.Detail)
	}
	return fmt.Sprintf("%s@%d: %s", v.Invariant, v.At, v.Detail)
}

// Suite collects violations from every attached tracker. All methods are
// nil-safe and safe for concurrent use, so one suite can watch a whole
// parallel exhibit run.
type Suite struct {
	mu          sync.Mutex
	violations  []Violation
	dropped     uint64
	onViolation func(Violation)
	context     string
}

// NewSuite returns an empty suite.
func NewSuite() *Suite { return &Suite{} }

// SetOnViolation installs a callback fired once per retained violation
// (drops past the retention cap do not fire it). The command layer uses
// this to dump the flight recorder the moment an invariant breaks, while
// the machine state that produced the breach is still in the ring. The
// callback runs outside the suite's lock — it may call back into the
// suite — but must itself be safe for concurrent use, since trackers on
// parallel runs report concurrently. Nil-safe; nil fn clears it.
func (s *Suite) SetOnViolation(fn func(Violation)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.onViolation = fn
	s.mu.Unlock()
}

// SetContext labels subsequently reported violations with a run context
// (e.g. "scenario-name/phase-name"), so failures from multi-phase runs
// are self-describing. An empty string clears the label. Nil-safe.
func (s *Suite) SetContext(label string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.context = label
	s.mu.Unlock()
}

// Context returns the current context label. Nil-safe.
func (s *Suite) Context() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.context
}

// Report records a violation stamped with the current context label.
// Nil-safe.
func (s *Suite) Report(invariant string, at uint64, format string, args ...any) {
	if s == nil {
		return
	}
	v := Violation{
		Invariant: invariant,
		At:        at,
		Detail:    fmt.Sprintf(format, args...),
	}
	s.mu.Lock()
	v.Context = s.context
	if len(s.violations) >= maxViolations {
		s.dropped++
		s.mu.Unlock()
		return
	}
	s.violations = append(s.violations, v)
	fn := s.onViolation
	s.mu.Unlock()
	if fn != nil {
		fn(v)
	}
}

// Violations returns a copy of the recorded violations. Nil-safe.
func (s *Suite) Violations() []Violation {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Violation(nil), s.violations...)
}

// Dropped reports how many violations were discarded beyond the
// retention cap. Nil-safe.
func (s *Suite) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Err returns nil when no violation was recorded, else an error wrapping
// ErrInvariant that lists the first few breaches. Nil-safe.
func (s *Suite) Err() error {
	if s == nil {
		return nil
	}
	v := s.Violations()
	if len(v) == 0 {
		return nil
	}
	msg := v[0].String()
	if len(v) > 1 {
		msg = fmt.Sprintf("%s (and %d more)", msg, len(v)-1)
	}
	return fmt.Errorf("%w: %s", ErrInvariant, msg)
}

// CheckNonNegative records a violation when v is negative or NaN.
// Nil-safe.
func (s *Suite) CheckNonNegative(name string, at uint64, v float64) {
	if s == nil {
		return
	}
	if v < 0 || math.IsNaN(v) {
		s.Report("energy", at, "%s = %v, want >= 0", name, v)
	}
}

// CheckSum records a violation when total is not the sum of parts within
// a relative tolerance of 1e-9. Nil-safe.
func (s *Suite) CheckSum(name string, at uint64, total float64, parts ...float64) {
	if s == nil {
		return
	}
	var sum float64
	for _, p := range parts {
		sum += p
	}
	tol := 1e-9 * math.Max(math.Abs(total), math.Abs(sum))
	if tol < 1e-15 {
		tol = 1e-15
	}
	if math.Abs(total-sum) > tol || math.IsNaN(total) || math.IsNaN(sum) {
		s.Report("energy", at, "%s: total %v != sum of parts %v", name, total, sum)
	}
}

// CheckMonotonic records a violation when next < prev (a counter that
// should only grow shrank). Nil-safe.
func (s *Suite) CheckMonotonic(name string, at uint64, prev, next float64) {
	if s == nil {
		return
	}
	if next < prev {
		s.Report("energy", at, "%s shrank: %v -> %v", name, prev, next)
	}
}

// CheckEqualU64 records a violation when a != b. Nil-safe.
func (s *Suite) CheckEqualU64(name string, at uint64, a, b uint64) {
	if s == nil {
		return
	}
	if a != b {
		s.Report("cycles", at, "%s: %d != %d", name, a, b)
	}
}
