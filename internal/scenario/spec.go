// Package scenario is the declarative black-box testing layer over the
// simulator: a JSON spec describes a multi-phase device usage pattern
// (workload mix, temperature and DVFS profile, refresh-fault schedules,
// daemon wakeups, suspend/resume events) plus the invariants the run
// must satisfy (refresh-ratio bounds via internal/checker, maximum
// slowdown and minimum savings against a baseline twin run, energy
// monotonicity across phases, zero uncorrectable errors under the
// retention model). The interpreter (run.go) drives internal/sim phase
// calls end-to-end and evaluates every declared invariant; cmd/meccscn
// and scenario_test.go are thin shells over it.
//
// Specs are JSON rather than a Go DSL so a scenario is data: the same
// file is listed, validated, run from the CLI, executed as a Go test,
// and fanned out as a CI matrix entry without recompiling.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"time"

	"repro/internal/retention"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ErrBadSpec wraps every validation failure so callers can test with
// errors.Is while messages stay specific.
var ErrBadSpec = errors.New("scenario: invalid spec")

// Phase types.
const (
	// PhaseActive runs a workload burst; wakes the device if idle.
	PhaseActive = "active"
	// PhaseIdle enters self refresh for a duration; device must be awake.
	PhaseIdle = "idle"
	// PhaseDaemon models a background wakeup during idle: wake, run a
	// short burst, and drop back to idle for the phase duration. The
	// device must already be idle.
	PhaseDaemon = "daemon"
	// PhaseSuspendResume is one suspend/resume pair (GoIdle + WakeUp)
	// while awake — with repeat it hammers the ECC-Upgrade sweep.
	PhaseSuspendResume = "suspend_resume"
)

// Invariant kinds.
const (
	// InvMetricMax asserts a flattened result metric <= value.
	InvMetricMax = "metric_max"
	// InvMetricMin asserts a flattened result metric >= value.
	InvMetricMin = "metric_min"
	// InvMaxSlowdown asserts baselineIPC/IPC <= value (baseline twin).
	InvMaxSlowdown = "max_slowdown"
	// InvMinEnergySaving asserts 1 - energy/baselineEnergy >= value.
	InvMinEnergySaving = "min_energy_saving"
	// InvMinRefreshSaving asserts 1 - pulses/baselinePulses >= value.
	InvMinRefreshSaving = "min_refresh_saving"
	// InvEnergyMonotonic asserts cumulative energy never shrinks across
	// phase boundaries.
	InvEnergyMonotonic = "energy_monotonic"
	// InvCheckerClean asserts the run-time checker suite recorded no
	// violations.
	InvCheckerClean = "checker_clean"
	// InvExpectViolation asserts the named checker invariant DID fire —
	// the planted-regression form. Violations not covered by an
	// expect_violation entry always fail the scenario.
	InvExpectViolation = "expect_violation"
	// InvZeroUncorrectable asserts the probability of an uncorrectable
	// error across all idle periods (retention model at the phase
	// temperature and divider) stays below budget (default 1e-6).
	InvZeroUncorrectable = "zero_uncorrectable"
	// InvSteppingEquivalence asserts the controller's jumping and
	// per-cycle (LegacyStepping) paths produce byte-identical results
	// for this scenario.
	InvSteppingEquivalence = "stepping_equivalence"
)

// checkerInvariants are the invariant names internal/checker can report,
// for validating expect_violation references.
var checkerInvariants = map[string]bool{
	"refresh-ratio":  true,
	"mdt-superset":   true,
	"smd-gating":     true,
	"ecc-transition": true,
	"energy":         true,
	"cycles":         true,
}

// Spec is one declarative scenario.
type Spec struct {
	// Name identifies the scenario (lowercase, digits, dashes).
	Name string `json:"name"`
	// Description says what regime the scenario probes.
	Description string `json:"description,omitempty"`
	// Scheme is the protection scheme (default "mecc").
	Scheme string `json:"scheme,omitempty"`
	// Seed drives all workload generators (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Scale divides footprints and instruction counts like the meccsim
	// -scale flag (default 4000).
	Scale int `json:"scale,omitempty"`
	// TempC is the starting junction temperature (default nominal).
	TempC float64 `json:"temp_c,omitempty"`
	// SMD enables Selective Memory Downgrade.
	SMD bool `json:"smd,omitempty"`
	// SMDThresholdMPKC overrides the SMD threshold (default 2).
	SMDThresholdMPKC float64 `json:"smd_threshold_mpkc,omitempty"`
	// NoMDT disables Memory Downgrade Tracking.
	NoMDT bool `json:"no_mdt,omitempty"`
	// DividerBits overrides the idle refresh divider (default 4 = 1 s).
	DividerBits *int `json:"divider_bits,omitempty"`
	// Short marks the scenario cheap enough for the -short test subset
	// and PR-level CI.
	Short bool `json:"short,omitempty"`
	// Phases is the usage pattern, executed in order.
	Phases []Phase `json:"phases"`
	// Faults optionally schedules deterministic refresh faults.
	Faults *FaultSpec `json:"faults,omitempty"`
	// Invariants are the pass/fail claims evaluated after the run.
	Invariants []Invariant `json:"invariants"`
}

// Phase is one step of the usage pattern.
type Phase struct {
	// Name labels checker violations and phase records; defaults to
	// "<type>[<index>]".
	Name string `json:"name,omitempty"`
	// Type is one of the Phase* constants.
	Type string `json:"type"`
	// Workload names a profile (SPEC, mobile, or "daemon") for active
	// and daemon phases.
	Workload string `json:"workload,omitempty"`
	// Instructions is the number of simulated instructions for the burst
	// (active and daemon phases). Scale shrinks workload footprints, not
	// this count, so specs state the burst length they actually run.
	Instructions int64 `json:"instructions,omitempty"`
	// DurationMS is the idle duration in milliseconds (idle, daemon, and
	// suspend_resume phases). Fractional values express sub-millisecond
	// suspends.
	DurationMS float64 `json:"duration_ms,omitempty"`
	// TempC, when nonzero, changes the junction temperature at the start
	// of this phase — the thermal-drift hook.
	TempC float64 `json:"temp_c,omitempty"`
	// DVFSMult scales the workload's base CPI for this phase (the
	// first-order DVFS model; 2 = half clock). Zero means 1.
	DVFSMult float64 `json:"dvfs_mult,omitempty"`
	// Repeat executes the phase this many times (default 1).
	Repeat int `json:"repeat,omitempty"`
}

// FaultSpec schedules a deterministic run of consecutive refresh faults
// starting at a refresh issue sequence number — the storm shape the
// graceful-degradation tests use.
type FaultSpec struct {
	// Kind is "drop_refresh" or "delay_refresh".
	Kind string `json:"kind"`
	// StartSeq is the first refresh issue sequence number hit.
	StartSeq uint64 `json:"start_seq"`
	// Count is how many consecutive refreshes are hit.
	Count int `json:"count"`
	// DelayCycles postpones each delayed refresh (delay_refresh only).
	DelayCycles uint64 `json:"delay_cycles,omitempty"`
}

// Invariant is one declared claim.
type Invariant struct {
	// Kind is one of the Inv* constants.
	Kind string `json:"kind"`
	// Metric names a flattened result metric (metric_max, metric_min).
	Metric string `json:"metric,omitempty"`
	// Value is the bound (metric and slowdown/saving kinds).
	Value float64 `json:"value,omitempty"`
	// Invariant names the checker invariant expected to fire
	// (expect_violation).
	Invariant string `json:"invariant,omitempty"`
	// Budget overrides the uncorrectable-probability bar
	// (zero_uncorrectable; default reliability.TargetSystemFailure).
	Budget float64 `json:"budget,omitempty"`
}

// Duration returns the phase's idle duration.
func (p Phase) Duration() time.Duration {
	return time.Duration(p.DurationMS * float64(time.Millisecond))
}

// Label returns the phase's display name.
func (p Phase) Label(index int) string {
	if p.Name != "" {
		return p.Name
	}
	return fmt.Sprintf("%s[%d]", p.Type, index)
}

// nameRE pins scenario names to something safe for file names, CI matrix
// entries, and -run regexps.
var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// Parse decodes one spec from JSON, rejecting unknown fields so typos in
// scenario files fail loudly, then validates it.
func Parse(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("%w: trailing data after spec object", ErrBadSpec)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// resolveProfile maps a workload name to its profile: the SPEC suite,
// the mobile set, or the idle-mode daemon.
func resolveProfile(name string) (workload.Profile, error) {
	if name == "daemon" {
		return workload.Daemon(), nil
	}
	if p, err := workload.ByName(name); err == nil {
		return p, nil
	}
	return workload.MobileByName(name)
}

// scheme returns the parsed scheme kind (default mecc).
func (s Spec) scheme() (sim.SchemeKind, error) {
	name := s.Scheme
	if name == "" {
		name = "mecc"
	}
	return sim.ParseScheme(name)
}

// scale returns the effective scale divisor.
func (s Spec) scale() int {
	if s.Scale <= 0 {
		return 4000
	}
	return s.Scale
}

// seed returns the effective generator seed.
func (s Spec) seed() int64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

// Validate checks the spec's static semantics: the phase state machine
// (no idle-while-idle, daemon only from idle, suspend/resume only while
// awake), positive durations and instruction counts, known workloads,
// in-range temperatures, and invariants that reference metrics the run
// will actually produce. All failures wrap ErrBadSpec.
func (s Spec) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s: %s", ErrBadSpec, s.Name, fmt.Sprintf(format, args...))
	}
	if s.Name == "" {
		return fmt.Errorf("%w: missing name", ErrBadSpec)
	}
	if !nameRE.MatchString(s.Name) {
		return bad("name must match %s", nameRE)
	}
	kind, err := s.scheme()
	if err != nil {
		return bad("%v", err)
	}
	if s.Scale < 0 {
		return bad("negative scale %d", s.Scale)
	}
	if s.TempC != 0 {
		if err := retention.CheckTemp(s.TempC); err != nil {
			return bad("temp_c: %v", err)
		}
	}
	if s.DividerBits != nil && (*s.DividerBits < 0 || *s.DividerBits > 8) {
		return bad("divider_bits %d out of range 0..8", *s.DividerBits)
	}
	if len(s.Phases) == 0 {
		return bad("no phases")
	}
	if err := s.validatePhases(bad); err != nil {
		return err
	}
	if err := s.validateFaults(bad); err != nil {
		return err
	}
	return s.validateInvariants(kind, bad)
}

func (s Spec) validatePhases(bad func(string, ...any) error) error {
	idle := false
	for i, p := range s.Phases {
		label := p.Label(i)
		if p.Repeat < 0 {
			return bad("phase %s: negative repeat %d", label, p.Repeat)
		}
		if p.DurationMS < 0 {
			// Mirrors sim.ErrBadDuration: durations are rejected here so
			// the run never starts, not clamped.
			return bad("phase %s: negative duration %g ms", label, p.DurationMS)
		}
		if p.DurationMS*float64(time.Millisecond) >= math.MaxInt64 {
			// Duration() would wrap negative mid-run.
			return bad("phase %s: duration %g ms overflows time.Duration", label, p.DurationMS)
		}
		if p.Instructions < 0 {
			return bad("phase %s: negative instructions %d", label, p.Instructions)
		}
		if p.TempC != 0 {
			if err := retention.CheckTemp(p.TempC); err != nil {
				return bad("phase %s: temp_c: %v", label, err)
			}
		}
		if p.DVFSMult < 0 || p.DVFSMult > 8 {
			return bad("phase %s: dvfs_mult %g out of range (0,8]", label, p.DVFSMult)
		}
		switch p.Type {
		case PhaseActive:
			if p.Workload == "" || p.Instructions == 0 {
				return bad("phase %s: active needs workload and instructions", label)
			}
			if _, err := resolveProfile(p.Workload); err != nil {
				return bad("phase %s: %v", label, err)
			}
			idle = false
		case PhaseIdle:
			if idle {
				return bad("phase %s: idle while already idle (bad phase ordering)", label)
			}
			if p.DurationMS == 0 {
				return bad("phase %s: idle needs duration_ms", label)
			}
			idle = true
		case PhaseDaemon:
			if !idle {
				return bad("phase %s: daemon wakeup requires the device to be idle (bad phase ordering)", label)
			}
			if p.Workload == "" || p.Instructions == 0 || p.DurationMS == 0 {
				return bad("phase %s: daemon needs workload, instructions, and duration_ms", label)
			}
			if _, err := resolveProfile(p.Workload); err != nil {
				return bad("phase %s: %v", label, err)
			}
		case PhaseSuspendResume:
			if idle {
				return bad("phase %s: suspend_resume requires the device to be awake (bad phase ordering)", label)
			}
			if p.DurationMS == 0 {
				return bad("phase %s: suspend_resume needs duration_ms", label)
			}
		default:
			return bad("phase %s: unknown type %q", label, p.Type)
		}
	}
	return nil
}

func (s Spec) validateFaults(bad func(string, ...any) error) error {
	f := s.Faults
	if f == nil {
		return nil
	}
	switch f.Kind {
	case "drop_refresh", "delay_refresh":
	default:
		return bad("faults: unknown kind %q", f.Kind)
	}
	if f.Count <= 0 {
		return bad("faults: count must be positive, got %d", f.Count)
	}
	if f.Kind == "delay_refresh" && f.DelayCycles == 0 {
		return bad("faults: delay_refresh needs delay_cycles")
	}
	return nil
}

func (s Spec) validateInvariants(kind sim.SchemeKind, bad func(string, ...any) error) error {
	if len(s.Invariants) == 0 {
		return bad("no invariants declared")
	}
	keys := MetricKeys()
	for i, inv := range s.Invariants {
		switch inv.Kind {
		case InvMetricMax, InvMetricMin:
			if inv.Metric == "" {
				return bad("invariant %d (%s): missing metric", i, inv.Kind)
			}
			if !keys[inv.Metric] {
				return bad("invariant %d (%s): unknown metric %q (see meccscn list -metrics)", i, inv.Kind, inv.Metric)
			}
			if kind != sim.SchemeMECC && len(inv.Metric) > 5 && inv.Metric[:5] == "mecc." {
				return bad("invariant %d: metric %q requires scheme mecc, spec uses %s", i, inv.Metric, kind)
			}
		case InvMaxSlowdown, InvMinEnergySaving, InvMinRefreshSaving:
			if inv.Value <= 0 {
				return bad("invariant %d (%s): needs a positive value", i, inv.Kind)
			}
		case InvEnergyMonotonic, InvCheckerClean:
		case InvExpectViolation:
			if !checkerInvariants[inv.Invariant] {
				return bad("invariant %d (expect_violation): unknown checker invariant %q", i, inv.Invariant)
			}
		case InvZeroUncorrectable:
			if inv.Budget < 0 {
				return bad("invariant %d (zero_uncorrectable): negative budget", i)
			}
		case InvSteppingEquivalence:
		default:
			return bad("invariant %d: unknown kind %q", i, inv.Kind)
		}
	}
	return nil
}

// describe renders one invariant for reports.
func (inv Invariant) describe() string {
	switch inv.Kind {
	case InvMetricMax:
		return fmt.Sprintf("%s %s <= %g", inv.Kind, inv.Metric, inv.Value)
	case InvMetricMin:
		return fmt.Sprintf("%s %s >= %g", inv.Kind, inv.Metric, inv.Value)
	case InvMaxSlowdown, InvMinEnergySaving, InvMinRefreshSaving:
		return fmt.Sprintf("%s %g", inv.Kind, inv.Value)
	case InvExpectViolation:
		return fmt.Sprintf("%s %s", inv.Kind, inv.Invariant)
	case InvZeroUncorrectable:
		if inv.Budget > 0 {
			return fmt.Sprintf("%s budget %g", inv.Kind, inv.Budget)
		}
		return inv.Kind
	default:
		return inv.Kind
	}
}

// ValidateSet validates each spec and rejects duplicate scenario names
// across the set.
func ValidateSet(specs []Spec) error {
	seen := map[string]bool{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return err
		}
		if seen[s.Name] {
			return fmt.Errorf("%w: duplicate scenario name %q", ErrBadSpec, s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

// LoadFile parses and validates one spec file.
func LoadFile(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return s, nil
}

// LoadDir loads every *.json spec under dir (sorted by file name) and
// validates the set.
func LoadDir(dir string) ([]Spec, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var specs []Spec
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		s, err := LoadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	if err := ValidateSet(specs); err != nil {
		return nil, err
	}
	return specs, nil
}

// loadFS loads every *.json spec from an fs.FS (the embedded library).
func loadFS(fsys fs.FS, dir string) ([]Spec, error) {
	entries, err := fs.ReadDir(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	specs := make([]Spec, 0, len(names))
	for _, name := range names {
		data, err := fs.ReadFile(fsys, dir+"/"+name)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		s, err := Parse(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		specs = append(specs, s)
	}
	if err := ValidateSet(specs); err != nil {
		return nil, err
	}
	return specs, nil
}
