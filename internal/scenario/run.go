package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/checker"
	"repro/internal/obs"
	"repro/internal/reliability"
	"repro/internal/retention"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options adjusts how the interpreter executes a spec. The zero value is
// the standard configuration: jumping (not legacy per-cycle) stepping,
// invariant checkers attached, no telemetry.
type Options struct {
	// NoCheck skips attaching the run-time checker suite. Scenarios that
	// declare checker invariants fail under it, by design.
	NoCheck bool
	// LegacyStepping forces the per-cycle reference scheduler.
	LegacyStepping bool
	// Obs, when non-nil, receives metrics/events/spans from the run.
	Obs *obs.Recorder
	// SpanParent parents the scenario's root span (requires Obs).
	SpanParent uint64
	// ExtraFaults appends a fault schedule on top of the spec's own —
	// the planted-regression hook: a clean scenario plus an injected
	// storm must fail its invariants.
	ExtraFaults []checker.Fault
	// Tamper, when non-nil, mutates the simulator config after the spec
	// is applied and before the runner is built — the second
	// planted-regression hook (e.g. forcing an unsafe refresh divider).
	Tamper func(*sim.Config)
}

// PhaseRecord summarizes one executed (repeat-expanded) phase.
type PhaseRecord struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	Type  string `json:"type"`
	// TempC is the junction temperature during the phase.
	TempC float64 `json:"temp_c"`
	// CumEnergyJ and CumInstructions are cumulative totals at phase end.
	CumEnergyJ      float64 `json:"cum_energy_j"`
	CumInstructions uint64  `json:"cum_instructions"`
	// Idle-entry transition summary (idle-bearing phases only).
	SweepCycles   uint64 `json:"sweep_cycles,omitempty"`
	LinesUpgraded uint64 `json:"lines_upgraded,omitempty"`
	DividerBits   int    `json:"divider_bits,omitempty"`
}

// InvariantRecord is one evaluated invariant.
type InvariantRecord struct {
	Kind   string `json:"kind"`
	Desc   string `json:"desc"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Outcome is the full result of interpreting one scenario.
type Outcome struct {
	Name   string `json:"name"`
	Passed bool   `json:"passed"`
	Short  bool   `json:"short"`
	Scheme string `json:"scheme"`
	Seed   int64  `json:"seed"`
	// UncorrectableProb is the combined uncorrectable-error probability
	// over all idle periods under the retention model.
	UncorrectableProb float64           `json:"uncorrectable_prob"`
	Phases            []PhaseRecord     `json:"phases"`
	Invariants        []InvariantRecord `json:"invariants"`
	// Violations renders every checker violation (context-labeled).
	Violations []string `json:"violations,omitempty"`
	// Result is the end-of-run figures of merit.
	Result sim.Result `json:"result"`
}

// switchSource is a trace.Source whose inner generator the interpreter
// swaps at phase boundaries, so one runner plays a different workload
// per phase.
type switchSource struct {
	src trace.Source
}

// Next implements trace.Source.
func (s *switchSource) Next() (trace.Record, bool) {
	if s.src == nil {
		return trace.Record{}, false
	}
	return s.src.Next()
}

// idleEpisode captures one idle period for the retention evaluation.
type idleEpisode struct {
	dur     time.Duration
	tempC   float64
	divider int
}

// runState is everything executePhases produces beyond the sim result.
type runState struct {
	result     sim.Result
	phases     []PhaseRecord
	energy     []float64 // cumulative total energy per phase boundary
	episodes   []idleEpisode
	idleTime   time.Duration
	violations []checker.Violation
}

// buildConfig maps the spec (plus options) onto a simulator config.
func buildConfig(s Spec, kind sim.SchemeKind, opts Options) sim.Config {
	cfg := sim.DefaultConfig(kind, 0)
	cfg.Seed = s.seed()
	if s.TempC != 0 {
		cfg.TempC = s.TempC
	}
	cfg.Ctrl.LegacyStepping = opts.LegacyStepping
	if s.DividerBits != nil {
		cfg.MECC.DividerBits = *s.DividerBits
	}
	cfg.MECC.MDTEnabled = !s.NoMDT
	cfg.MECC.SMDEnabled = s.SMD
	if s.SMDThresholdMPKC > 0 {
		cfg.MECC.SMDThresholdMPKC = s.SMDThresholdMPKC
	}
	// Shrink the SMD monitoring quantum with the footprint scale, as
	// cmd/meccsim does, so scaled bursts still span several windows.
	cfg.MECC.SMDWindowCycles /= uint64(s.scale())
	if cfg.MECC.SMDWindowCycles == 0 {
		cfg.MECC.SMDWindowCycles = 1
	}
	return cfg
}

// faultPlan builds the deterministic refresh-fault schedule from the
// spec plus any planted extras.
func faultPlan(s Spec, opts Options) *checker.FaultPlan {
	var faults []checker.Fault
	if f := s.Faults; f != nil {
		kind := checker.DropRefresh
		if f.Kind == "delay_refresh" {
			kind = checker.DelayRefresh
		}
		for i := 0; i < f.Count; i++ {
			faults = append(faults, checker.Fault{
				Kind:        kind,
				Seq:         f.StartSeq + uint64(i),
				DelayCycles: f.DelayCycles,
			})
		}
	}
	faults = append(faults, opts.ExtraFaults...)
	if len(faults) == 0 {
		return nil
	}
	return &checker.FaultPlan{Seed: s.seed(), Faults: faults}
}

// firstProfile picks the runner's nominal profile: the first
// workload-bearing phase, else gcc (pure idle patterns).
func firstProfile(s Spec) (workload.Profile, error) {
	for _, p := range s.Phases {
		if p.Workload != "" {
			return resolveProfile(p.Workload)
		}
	}
	return workload.ByName("gcc")
}

// executePhases drives one runner through the spec's phase list and
// returns the collected state. suite may be nil (unchecked twin runs).
func executePhases(s Spec, cfg sim.Config, suite *checker.Suite, plan *checker.FaultPlan, rec *obs.Recorder, spanParent uint64) (*runState, error) {
	cfg.Check = suite
	cfg.Obs = rec
	scnSpan := rec.StartSpanUnder("scenario:"+s.Name, spanParent, 0)
	if scnSpan != nil {
		cfg.SpanParent = scnSpan.ID()
	}
	prof0, err := firstProfile(s)
	if err != nil {
		return nil, err
	}
	scale := s.scale()
	src := &switchSource{}
	r, err := sim.NewRunnerWithSource(prof0.Scaled(scale), src, cfg)
	if err != nil {
		return nil, err
	}
	if plan != nil {
		r.InjectRefreshFaults(plan.RefreshFaults())
	}
	totalLines := cfg.DRAM.TotalLines()
	st := &runState{}
	idle := false
	expanded := 0

	setWorkload := func(p Phase, seq int) error {
		prof, err := resolveProfile(p.Workload)
		if err != nil {
			return err
		}
		sp := prof.Scaled(scale)
		gen, err := workload.NewGenerator(sp, totalLines, s.seed()*1_000_003+int64(seq))
		if err != nil {
			return err
		}
		src.src = gen
		cpi := sp.BaseCPI
		if p.DVFSMult > 0 {
			cpi *= p.DVFSMult
		}
		return r.SetBaseCPI(cpi)
	}
	goIdle := func(p Phase, recPhase *PhaseRecord) error {
		if err := r.GoIdle(p.Duration()); err != nil {
			return err
		}
		tr := r.LastTransition()
		st.episodes = append(st.episodes, idleEpisode{
			dur: p.Duration(), tempC: r.TempC(), divider: tr.DividerBits,
		})
		recPhase.SweepCycles = tr.SweepCycles
		recPhase.LinesUpgraded = tr.LinesUpgraded
		recPhase.DividerBits = tr.DividerBits
		return nil
	}

	for pi, p := range s.Phases {
		repeat := p.Repeat
		if repeat <= 0 {
			repeat = 1
		}
		label := p.Label(pi)
		for rep := 0; rep < repeat; rep++ {
			seq := expanded
			expanded++
			suite.SetContext(s.Name + "/" + label)
			if p.TempC != 0 {
				if err := r.SetTempC(p.TempC); err != nil {
					return nil, fmt.Errorf("phase %s: %w", label, err)
				}
			}
			pr := PhaseRecord{Index: seq, Name: label, Type: p.Type, TempC: r.TempC()}
			switch p.Type {
			case PhaseActive:
				if idle {
					if err := r.WakeUp(); err != nil {
						return nil, fmt.Errorf("phase %s: %w", label, err)
					}
					idle = false
				}
				if err := setWorkload(p, seq); err != nil {
					return nil, fmt.Errorf("phase %s: %w", label, err)
				}
				if err := r.RunActive(p.Instructions); err != nil {
					return nil, fmt.Errorf("phase %s: %w", label, err)
				}
			case PhaseIdle:
				if err := goIdle(p, &pr); err != nil {
					return nil, fmt.Errorf("phase %s: %w", label, err)
				}
				idle = true
			case PhaseDaemon:
				if err := r.WakeUp(); err != nil {
					return nil, fmt.Errorf("phase %s: %w", label, err)
				}
				if err := setWorkload(p, seq); err != nil {
					return nil, fmt.Errorf("phase %s: %w", label, err)
				}
				if err := r.RunActive(p.Instructions); err != nil {
					return nil, fmt.Errorf("phase %s: %w", label, err)
				}
				if err := goIdle(p, &pr); err != nil {
					return nil, fmt.Errorf("phase %s: %w", label, err)
				}
			case PhaseSuspendResume:
				if err := goIdle(p, &pr); err != nil {
					return nil, fmt.Errorf("phase %s: %w", label, err)
				}
				if err := r.WakeUp(); err != nil {
					return nil, fmt.Errorf("phase %s: %w", label, err)
				}
			}
			snap := r.Result()
			pr.CumEnergyJ = snap.TotalEnergyJ()
			pr.CumInstructions = snap.Instructions
			st.energy = append(st.energy, pr.CumEnergyJ)
			st.phases = append(st.phases, pr)
		}
	}
	suite.SetContext(s.Name + "/end")
	if idle {
		if err := r.WakeUp(); err != nil {
			return nil, err
		}
	}
	st.result = r.Result()
	st.idleTime = r.IdleTime()
	st.violations = suite.Violations()
	scnSpan.End(st.result.Cycles)
	return st, nil
}

// eccStrength maps a scheme to the correctable bit count during idle
// (after the upgrade sweep every MECC line holds the strong code).
func eccStrength(kind sim.SchemeKind) int {
	switch kind {
	case sim.SchemeMECC, sim.SchemeECC6:
		return 6
	case sim.SchemeSECDED:
		return 1
	default:
		return 0
	}
}

// uncorrectableProb evaluates the retention model over every idle
// episode and combines the per-episode system failure probabilities.
// The exposure period of one episode is the refresh period at its
// divider, capped by the episode duration but never below the 64 ms
// base period a line is exposed to regardless.
func uncorrectableProb(episodes []idleEpisode, kind sim.SchemeKind) float64 {
	model := retention.DefaultModel()
	t := eccStrength(kind)
	logOK := 0.0 // log of probability that no episode fails
	for _, ep := range episodes {
		period := retention.JEDECPeriod << ep.divider
		exposure := ep.dur
		if exposure < retention.JEDECPeriod {
			exposure = retention.JEDECPeriod
		}
		if exposure > period {
			exposure = period
		}
		ber := model.BERAtTemp(exposure, ep.tempC)
		var sf float64
		switch {
		case ber <= 0:
			sf = 0
		case ber >= 1:
			sf = 1
		default:
			lf, err := reliability.LineFailure(576, t, ber)
			if err != nil {
				sf = 1
			} else if sf, err = reliability.SystemFailure(lf, reliability.DefaultMemoryLines); err != nil {
				sf = 1
			}
		}
		if sf >= 1 {
			return 1
		}
		logOK += math.Log1p(-sf)
	}
	p := -math.Expm1(logOK)
	if p <= 0 {
		return 0 // normalize -0 from an empty or all-safe episode list
	}
	return p
}

// totalRefreshPulses sums auto-refresh commands and self-refresh pulses.
func totalRefreshPulses(res sim.Result) float64 {
	return float64(res.DRAM.NREF + res.DRAM.NREFpb + res.DRAM.NSelfRefreshPulses)
}

// Run interprets one validated spec and evaluates its invariants.
func Run(s Spec, opts Options) (*Outcome, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	kind, err := s.scheme()
	if err != nil {
		return nil, err
	}
	cfg := buildConfig(s, kind, opts)
	if opts.Tamper != nil {
		opts.Tamper(&cfg)
	}
	var suite *checker.Suite
	if !opts.NoCheck {
		suite = checker.NewSuite()
	}
	st, err := executePhases(s, cfg, suite, faultPlan(s, opts), opts.Obs, opts.SpanParent)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}

	out := &Outcome{
		Name:              s.Name,
		Short:             s.Short,
		Scheme:            kind.String(),
		Seed:              s.seed(),
		UncorrectableProb: uncorrectableProb(st.episodes, kind),
		Phases:            st.phases,
		Result:            st.result,
	}
	for _, v := range st.violations {
		out.Violations = append(out.Violations, v.String())
	}

	// Derived metrics ride on top of the flattened result.
	flat := Flatten(st.result)
	flat[MetricTotalEnergyJ] = st.result.TotalEnergyJ()
	flat[MetricTotalRefreshPulses] = totalRefreshPulses(st.result)
	flat[MetricIdleTimeSec] = st.idleTime.Seconds()
	flat[MetricUncorrectableProb] = out.UncorrectableProb

	// The baseline twin (no protection, no faults, no checker) is run at
	// most once, only when a comparative invariant asks for it.
	var base *runState
	baseline := func() (*runState, error) {
		if base != nil {
			return base, nil
		}
		bs := s
		bs.Scheme = "baseline"
		bs.Faults = nil
		bcfg := buildConfig(bs, sim.SchemeBaseline, opts)
		b, err := executePhases(bs, bcfg, nil, nil, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: baseline twin: %w", s.Name, err)
		}
		base = b
		return base, nil
	}

	expected := map[string]bool{}
	for _, inv := range s.Invariants {
		if inv.Kind == InvExpectViolation {
			expected[inv.Invariant] = true
		}
	}
	declaredClean := false

	for _, inv := range s.Invariants {
		rec := InvariantRecord{Kind: inv.Kind, Desc: inv.describe(), OK: true}
		switch inv.Kind {
		case InvMetricMax, InvMetricMin:
			got, ok := flat[inv.Metric]
			switch {
			case !ok:
				rec.OK = false
				rec.Detail = fmt.Sprintf("metric %s unavailable in this run", inv.Metric)
			case inv.Kind == InvMetricMax && got > inv.Value:
				rec.OK = false
				rec.Detail = fmt.Sprintf("%s = %g, want <= %g", inv.Metric, got, inv.Value)
			case inv.Kind == InvMetricMin && got < inv.Value:
				rec.OK = false
				rec.Detail = fmt.Sprintf("%s = %g, want >= %g", inv.Metric, got, inv.Value)
			default:
				rec.Detail = fmt.Sprintf("%s = %g", inv.Metric, got)
			}
		case InvMaxSlowdown:
			b, err := baseline()
			if err != nil {
				return nil, err
			}
			slow := b.result.IPC / st.result.IPC
			rec.Detail = fmt.Sprintf("slowdown %.4f", slow)
			if slow > inv.Value {
				rec.OK = false
				rec.Detail = fmt.Sprintf("slowdown %.4f, want <= %g", slow, inv.Value)
			}
		case InvMinEnergySaving:
			b, err := baseline()
			if err != nil {
				return nil, err
			}
			saving := 1 - st.result.TotalEnergyJ()/b.result.TotalEnergyJ()
			rec.Detail = fmt.Sprintf("energy saving %.4f", saving)
			if saving < inv.Value {
				rec.OK = false
				rec.Detail = fmt.Sprintf("energy saving %.4f, want >= %g", saving, inv.Value)
			}
		case InvMinRefreshSaving:
			b, err := baseline()
			if err != nil {
				return nil, err
			}
			saving := 1 - totalRefreshPulses(st.result)/totalRefreshPulses(b.result)
			rec.Detail = fmt.Sprintf("refresh saving %.4f", saving)
			if saving < inv.Value {
				rec.OK = false
				rec.Detail = fmt.Sprintf("refresh saving %.4f, want >= %g", saving, inv.Value)
			}
		case InvEnergyMonotonic:
			for i := 1; i < len(st.energy); i++ {
				if st.energy[i] < st.energy[i-1] {
					rec.OK = false
					rec.Detail = fmt.Sprintf("energy shrank at phase %d: %g -> %g",
						i, st.energy[i-1], st.energy[i])
					break
				}
			}
		case InvCheckerClean:
			declaredClean = true
			if opts.NoCheck {
				rec.OK = false
				rec.Detail = "checker disabled (-no-check)"
			} else if n := len(st.violations); n > 0 {
				rec.OK = false
				rec.Detail = fmt.Sprintf("%d violation(s), first: %s", n, st.violations[0])
			}
		case InvExpectViolation:
			if opts.NoCheck {
				rec.OK = false
				rec.Detail = "checker disabled (-no-check)"
				break
			}
			fired := false
			for _, v := range st.violations {
				if v.Invariant == inv.Invariant {
					fired = true
					break
				}
			}
			if !fired {
				rec.OK = false
				rec.Detail = fmt.Sprintf("expected %s violation did not fire", inv.Invariant)
			}
		case InvZeroUncorrectable:
			budget := inv.Budget
			if budget == 0 {
				budget = reliability.TargetSystemFailure
			}
			rec.Detail = fmt.Sprintf("uncorrectable_prob %.3g, budget %g", out.UncorrectableProb, budget)
			if out.UncorrectableProb > budget {
				rec.OK = false
			}
		case InvSteppingEquivalence:
			twinOpts := opts
			twinOpts.LegacyStepping = !opts.LegacyStepping
			twinOpts.Obs = nil
			tcfg := buildConfig(s, kind, twinOpts)
			if opts.Tamper != nil {
				opts.Tamper(&tcfg)
				tcfg.Ctrl.LegacyStepping = twinOpts.LegacyStepping
			}
			twin, err := executePhases(s, tcfg, checker.NewSuite(), faultPlan(s, twinOpts), nil, 0)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: stepping twin: %w", s.Name, err)
			}
			a, err := json.Marshal(st.result)
			if err != nil {
				return nil, err
			}
			b, err := json.Marshal(twin.result)
			if err != nil {
				return nil, err
			}
			if string(a) != string(b) {
				rec.OK = false
				rec.Detail = "jumping and legacy stepping results differ"
			}
		}
		out.Invariants = append(out.Invariants, rec)
	}

	// Violations not covered by an expect_violation declaration fail the
	// scenario even when no checker invariant was declared (checker_clean
	// already reports them when present).
	if !declaredClean && !opts.NoCheck {
		for _, v := range st.violations {
			if !expected[v.Invariant] {
				out.Invariants = append(out.Invariants, InvariantRecord{
					Kind: "unexpected_violation",
					Desc: "no undeclared checker violations",
					OK:   false, Detail: v.String(),
				})
				break
			}
		}
	}

	out.Passed = true
	for _, rec := range out.Invariants {
		if !rec.OK {
			out.Passed = false
			break
		}
	}
	return out, nil
}

// RunSet interprets specs concurrently on the given number of workers
// (min 1) and returns outcomes in spec order — results are independent
// of the worker count by construction (each scenario runs on its own
// runner with its own seeds).
func RunSet(specs []Spec, opts Options, workers int) ([]*Outcome, error) {
	if workers < 1 {
		workers = 1
	}
	outcomes := make([]*Outcome, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				outcomes[i], errs[i] = Run(specs[i], opts)
			}
		}()
	}
	for i := range specs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outcomes, nil
}

// WriteJSONL streams outcomes as one JSON object per line, followed by a
// summary line. The encoding is deterministic (struct field order), so
// equal runs produce byte-identical output.
func WriteJSONL(w io.Writer, outcomes []*Outcome) error {
	enc := json.NewEncoder(w)
	passed := 0
	for _, o := range outcomes {
		rec := struct {
			Rec string `json:"rec"`
			*Outcome
		}{Rec: "outcome", Outcome: o}
		if err := enc.Encode(rec); err != nil {
			return err
		}
		if o.Passed {
			passed++
		}
	}
	summary := struct {
		Rec    string `json:"rec"`
		Total  int    `json:"total"`
		Passed int    `json:"passed"`
		Failed int    `json:"failed"`
	}{"summary", len(outcomes), passed, len(outcomes) - passed}
	return enc.Encode(summary)
}
