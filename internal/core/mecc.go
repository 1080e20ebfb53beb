// Package core implements Morphable ECC (MECC), the paper's primary
// contribution: a memory-controller state machine that keeps every line
// protected by strong ECC (ECC-6) with 16x slower refresh while the
// system idles, and lazily downgrades lines to weak ECC (line SECDED) on
// first touch during active periods. It includes the two Section VI
// enhancements:
//
//   - MDT (Memory Downgrade Tracking): a 1K-entry bitmap over 1 MB
//     regions recording where downgrades happened, so the idle-entry
//     ECC-Upgrade sweep converts only dirty regions (≈8x fewer lines,
//     ≈400 ms → ≈50 ms);
//   - SMD (Selective Memory Downgrade): a per-64 ms traffic monitor that
//     leaves ECC-Downgrade disabled (and refresh slow) for workloads
//     whose MPKC stays below a threshold, so periodic daemons never drag
//     memory out of its power-optimized state.
//
// This package models ECC *state* (which mode protects each line) and
// transition costs; data-integrity behaviour (actual encode/decode) lives
// in internal/ecc and is exercised by the integrity experiments.
package core

import (
	"errors"
	"fmt"

	"repro/internal/checker"
	"repro/internal/obs"
)

// Errors returned on invalid configuration or use.
var (
	ErrBadConfig = errors.New("mecc: invalid configuration")
	ErrBadPhase  = errors.New("mecc: operation illegal in current phase")
)

// Phase is the system activity phase.
type Phase int

// Phases.
const (
	// PhaseActive: processor on, memory in auto-refresh.
	PhaseActive Phase = iota + 1
	// PhaseIdle: processor off, memory in self refresh.
	PhaseIdle
)

// String renders the phase.
func (p Phase) String() string {
	switch p {
	case PhaseActive:
		return "active"
	case PhaseIdle:
		return "idle"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Config parameterizes the MECC controller.
type Config struct {
	// TotalLines is the memory size in cache lines.
	TotalLines uint64
	// DividerBits is the idle-mode refresh-rate divider: refresh period
	// is 64 ms << DividerBits (paper: 4, for 1 s).
	DividerBits int

	// MDTEnabled turns Memory Downgrade Tracking on.
	MDTEnabled bool
	// MDTEntries is the region count (paper: 1024 entries = 128 B).
	MDTEntries int

	// SMDEnabled turns Selective Memory Downgrade on.
	SMDEnabled bool
	// SMDThresholdMPKC is the traffic threshold in misses per kilo-cycle
	// above which ECC-Downgrade is enabled (paper: 2).
	SMDThresholdMPKC float64
	// SMDWindowCycles is the monitoring quantum in CPU cycles (paper:
	// every 64 ms ≈ 100 M cycles at 1.6 GHz).
	SMDWindowCycles uint64

	// UpgradeCyclesPerLine is the CPU-cycle cost of converting one line
	// during the ECC-Upgrade sweep (paper: 640 M cycles for 16 M lines
	// = 40 cycles/line).
	UpgradeCyclesPerLine int
	// UpgradeEnergyPJPerLine is the coding energy of one line upgrade
	// (read + ECC-6 encode + write back), excluding DRAM burst energy
	// accounted elsewhere.
	UpgradeEnergyPJPerLine float64
}

// DefaultConfig returns the paper's MECC configuration for a memory of
// the given size, with both enhancements enabled.
func DefaultConfig(totalLines uint64) Config {
	return Config{
		TotalLines:             totalLines,
		DividerBits:            4,
		MDTEnabled:             true,
		MDTEntries:             1024,
		SMDEnabled:             false,
		SMDThresholdMPKC:       2,
		SMDWindowCycles:        100_000_000,
		UpgradeCyclesPerLine:   40,
		UpgradeEnergyPJPerLine: 7, // ECC-6 encode (~6 pJ) + weak decode
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.TotalLines == 0:
		return fmt.Errorf("%w: zero lines", ErrBadConfig)
	case c.DividerBits < 0 || c.DividerBits > 8:
		return fmt.Errorf("%w: dividerBits=%d", ErrBadConfig, c.DividerBits)
	case c.MDTEnabled && c.MDTEntries <= 0:
		return fmt.Errorf("%w: MDTEntries=%d", ErrBadConfig, c.MDTEntries)
	case c.SMDEnabled && (c.SMDThresholdMPKC < 0 || c.SMDWindowCycles == 0):
		return fmt.Errorf("%w: SMD parameters", ErrBadConfig)
	case c.UpgradeCyclesPerLine <= 0:
		return fmt.Errorf("%w: UpgradeCyclesPerLine=%d", ErrBadConfig, c.UpgradeCyclesPerLine)
	}
	return nil
}

// ReadOutcome tells the memory system how a read resolves.
type ReadOutcome struct {
	// StrongDecode: the line was in ECC-6 and pays the strong decode
	// latency.
	StrongDecode bool
	// Downgrade: the controller re-encodes the line weak and schedules a
	// writeback (off the critical path).
	Downgrade bool
}

// IdleTransition summarizes an ECC-Upgrade sweep at idle entry.
type IdleTransition struct {
	// LinesUpgraded is how many lines were converted to strong ECC.
	LinesUpgraded uint64
	// SweepCycles is the CPU-cycle duration of the sweep.
	SweepCycles uint64
	// EnergyPJ is the coding energy spent.
	EnergyPJ float64
	// RegionsSwept is the number of MDT regions visited (equals the
	// full region count when MDT is disabled).
	RegionsSwept int
}

// Stats accumulates controller events.
type Stats struct {
	// StrongReads and WeakReads split active-mode reads by decoder used.
	StrongReads uint64 `json:"strong_reads"`
	WeakReads   uint64 `json:"weak_reads"`
	// Downgrades counts ECC-Downgrade conversions (with writebacks).
	Downgrades uint64 `json:"downgrades"`
	// UpgradedLines totals lines converted across all sweeps.
	UpgradedLines uint64 `json:"upgraded_lines"`
	// Sweeps counts idle transitions.
	Sweeps uint64 `json:"sweeps"`
	// SMDWindows counts completed monitoring quanta; SMDEnables counts
	// windows that tripped the threshold.
	SMDWindows uint64 `json:"smd_windows"`
	SMDEnables uint64 `json:"smd_enables"`
	// DowngradeDisabledCycles accumulates active-mode CPU cycles during
	// which SMD kept ECC-Downgrade off (the Fig. 14 metric).
	DowngradeDisabledCycles uint64 `json:"downgrade_disabled_cycles"`
	// ActiveCycles accumulates total active-mode CPU cycles.
	ActiveCycles uint64 `json:"active_cycles"`
}

// Controller is the MECC state machine. Not safe for concurrent use.
type Controller struct {
	cfg Config

	phase Phase
	// strongMode holds one bit per line: set = ECC-6.
	strongMode *bitset
	// mdt marks regions containing downgraded lines.
	mdt            *bitset
	linesPerRegion uint64

	// SMD state.
	downgradeOn  bool
	windowStart  uint64
	windowMisses uint64
	lastSeen     uint64 // most recent CPU cycle observed

	stats Stats

	// Invariant checker (nil-safe no-ops when detached).
	chk *checker.MECC

	// Telemetry (nil-safe no-ops when detached). Counters with a Stats
	// twin are published from Stats by the simulation runner.
	obs          *obs.Recorder
	cMDTMarks    *obs.Counter
	gDowngradeOn *obs.Gauge
}

// New builds a controller; memory starts idle with every line strong
// (the factory/boot state after a first upgrade sweep).
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:        cfg,
		phase:      PhaseIdle,
		strongMode: newBitset(cfg.TotalLines),
	}
	c.strongMode.setAll(true)
	if cfg.MDTEnabled {
		c.mdt = newBitset(uint64(cfg.MDTEntries))
		c.linesPerRegion = cfg.TotalLines / uint64(cfg.MDTEntries)
		if c.linesPerRegion == 0 {
			c.linesPerRegion = 1
		}
	}
	return c, nil
}

// SetObserver attaches a telemetry recorder (nil detaches): the MDT mark
// counter and downgrade-state gauge, plus structured events for mode
// transitions, ECC-Upgrade sweeps, SMD decisions (with the MPKC sample
// that triggered them) and MDT region marks. All event timestamps are
// CPU cycles. The recorder it replaces gets its downgrade-state gauge
// back at rest (0), so a finished run that detaches leaves a shared
// registry reading the same whatever order parallel runs ended in.
func (c *Controller) SetObserver(r *obs.Recorder) {
	c.gDowngradeOn.Set(0)
	c.obs = r
	if r == nil {
		c.cMDTMarks, c.gDowngradeOn = nil, nil
		return
	}
	c.cMDTMarks = r.Counter("mecc_mdt_marks_total")
	c.gDowngradeOn = r.Gauge("mecc_downgrade_on")
	c.gDowngradeOn.Set(boolGauge(c.downgradeOn))
}

// SetChecker attaches a run-time invariant tracker (nil detaches). The
// tracker synchronizes with the controller's current phase and shadows
// every subsequent ECC-mode transition; attach it before any lines are
// downgraded (its shadow bitmap starts all-strong).
func (c *Controller) SetChecker(t *checker.MECC) {
	c.chk = t
	t.Attach(c, c.phase == PhaseActive, c.downgradeOn)
}

// MDTMarked reports whether the MDT currently marks the region (false
// when MDT is disabled). Exposed for the checker's superset validation.
func (c *Controller) MDTMarked(region uint64) bool {
	return c.mdt != nil && region < c.mdt.len() && c.mdt.get(region)
}

// boolGauge renders a flag as a 0/1 gauge value.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// Phase returns the current phase.
func (c *Controller) Phase() Phase { return c.phase }

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// DowngradeEnabled reports whether ECC-Downgrade is currently enabled
// (always true in active mode without SMD).
func (c *Controller) DowngradeEnabled() bool { return c.downgradeOn }

// IsStrong reports the ECC mode of a line.
func (c *Controller) IsStrong(lineAddr uint64) bool {
	return c.strongMode.get(lineAddr % c.cfg.TotalLines)
}

// StrongLines returns how many lines are currently in strong mode.
func (c *Controller) StrongLines() uint64 { return c.strongMode.count() }

// AppendWeakLines appends the addresses of every line currently in weak
// mode to buf, in increasing order, and returns the extended slice. The
// scan is word-at-a-time over the mode bitset's held pages, so the
// data-storing memory can gather an ECC-Upgrade sweep's work list
// without probing 16M line bits one by one.
func (c *Controller) AppendWeakLines(buf []uint64) []uint64 {
	return c.strongMode.appendZeroIndices(0, c.cfg.TotalLines, buf)
}

// RefreshDividerBits returns the refresh divider currently in force:
// slow refresh in idle mode, and — with SMD — also in active mode while
// ECC-Downgrade stays disabled (memory remains fully ECC-6 protected).
func (c *Controller) RefreshDividerBits() int {
	if c.phase == PhaseIdle {
		return c.cfg.DividerBits
	}
	if c.cfg.SMDEnabled && !c.downgradeOn {
		return c.cfg.DividerBits
	}
	return 0
}

func (c *Controller) regionOf(lineAddr uint64) uint64 {
	r := lineAddr / c.linesPerRegion
	if r >= uint64(c.cfg.MDTEntries) {
		r = uint64(c.cfg.MDTEntries) - 1
	}
	return r
}

// advanceSMD rolls the traffic-monitoring window forward to nowCPU,
// evaluating the MPKC threshold at each completed quantum boundary.
func (c *Controller) advanceSMD(nowCPU uint64) {
	if !c.cfg.SMDEnabled || c.downgradeOn {
		return
	}
	for nowCPU >= c.windowStart+c.cfg.SMDWindowCycles {
		c.stats.SMDWindows++
		mpkc := float64(c.windowMisses) / (float64(c.cfg.SMDWindowCycles) / 1000)
		boundary := c.windowStart + c.cfg.SMDWindowCycles
		c.windowStart = boundary
		c.windowMisses = 0
		if mpkc > c.cfg.SMDThresholdMPKC {
			c.downgradeOn = true
			c.stats.SMDEnables++
			c.chk.OnSMDEnable(boundary, mpkc, true)
			if c.obs != nil {
				c.gDowngradeOn.Set(1)
				if c.obs.Tracing(obs.KindSMDEnable) {
					c.obs.Emit(obs.Event{T: boundary, Kind: obs.KindSMDEnable, MPKC: mpkc})
				}
			}
			return
		}
		if c.obs.Tracing(obs.KindSMDWindow) {
			c.obs.Emit(obs.Event{T: boundary, Kind: obs.KindSMDWindow, MPKC: mpkc})
		}
	}
}

// markMDT records a downgrade's region in the MDT, emitting a mark
// event the first time a region turns dirty since the last sweep.
func (c *Controller) markMDT(addr, nowCPU uint64) {
	rg := c.regionOf(addr)
	if c.obs != nil && !c.mdt.get(rg) {
		c.cMDTMarks.Inc()
		if c.obs.Tracing(obs.KindMDTMark) {
			c.obs.Emit(obs.Event{T: nowCPU, Kind: obs.KindMDTMark, Region: rg})
		}
	}
	c.mdt.set(rg, true)
}

// noteActiveTime attributes elapsed active cycles to the Fig. 14 metric.
func (c *Controller) noteActiveTime(nowCPU uint64) {
	if nowCPU <= c.lastSeen {
		return
	}
	delta := nowCPU - c.lastSeen
	c.stats.ActiveCycles += delta
	if !c.downgradeOn {
		c.stats.DowngradeDisabledCycles += delta
	}
	c.lastSeen = nowCPU
}

// OnRead handles a demand read in active mode at CPU cycle nowCPU.
func (c *Controller) OnRead(lineAddr, nowCPU uint64) (ReadOutcome, error) {
	if c.phase != PhaseActive {
		return ReadOutcome{}, fmt.Errorf("%w: read in %v", ErrBadPhase, c.phase)
	}
	c.advanceSMD(nowCPU)
	c.noteActiveTime(nowCPU)
	c.windowMisses++

	addr := lineAddr % c.cfg.TotalLines
	if !c.strongMode.get(addr) {
		c.stats.WeakReads++
		c.chk.OnRead(addr, nowCPU, false, false)
		return ReadOutcome{}, nil
	}
	c.stats.StrongReads++
	if !c.downgradeOn {
		c.chk.OnRead(addr, nowCPU, true, false)
		return ReadOutcome{StrongDecode: true}, nil
	}
	// ECC-Downgrade: re-encode weak, mark mode bit and MDT region.
	c.strongMode.set(addr, false)
	if c.mdt != nil {
		c.markMDT(addr, nowCPU)
	}
	c.stats.Downgrades++
	c.chk.OnRead(addr, nowCPU, true, true)
	return ReadOutcome{StrongDecode: true, Downgrade: true}, nil
}

// OnWrite handles a writeback in active mode: data is re-encoded in weak
// ECC when downgrades are on (downgrading the line if needed), otherwise
// in the line's current mode. Encoding is off the critical path either
// way.
func (c *Controller) OnWrite(lineAddr, nowCPU uint64) error {
	if c.phase != PhaseActive {
		return fmt.Errorf("%w: write in %v", ErrBadPhase, c.phase)
	}
	c.advanceSMD(nowCPU)
	c.noteActiveTime(nowCPU)

	addr := lineAddr % c.cfg.TotalLines
	wasStrong := c.strongMode.get(addr)
	if c.downgradeOn && wasStrong {
		c.strongMode.set(addr, false)
		if c.mdt != nil {
			c.markMDT(addr, nowCPU)
		}
		c.stats.Downgrades++
		c.chk.OnWrite(addr, nowCPU, true, true)
		return nil
	}
	c.chk.OnWrite(addr, nowCPU, wasStrong, false)
	return nil
}

// EnterIdle performs the ECC-Upgrade sweep and switches to idle mode.
// With MDT, only regions that saw downgrades are swept; the MDT is reset
// afterwards (paper Section VI-A).
func (c *Controller) EnterIdle(nowCPU uint64) (IdleTransition, error) {
	if c.phase != PhaseActive {
		return IdleTransition{}, fmt.Errorf("%w: EnterIdle in %v", ErrBadPhase, c.phase)
	}
	c.noteActiveTime(nowCPU)
	// The checker inspects the MDT before the sweep resets it.
	c.chk.OnSweepStart(nowCPU)
	if c.obs.Tracing(obs.KindSweepStart) {
		c.obs.Emit(obs.Event{T: nowCPU, Kind: obs.KindSweepStart, Regions: c.MDTTrackedRegions()})
	}

	// The sweeps below run word-at-a-time over the mode bitset (count the
	// weak lines in a region, then fill it) instead of testing each line
	// bit individually — a 16 M-line sweep touches the words of the pages
	// it holds (256 K at most) and skips the pages it never downgraded a
	// line in whole, not 16 M bits.
	var tr IdleTransition
	if c.mdt != nil {
		for r := uint64(0); r < c.mdt.len(); r++ {
			if !c.mdt.get(r) {
				continue
			}
			tr.RegionsSwept++
			lo := r * c.linesPerRegion
			hi := lo + c.linesPerRegion
			if r == c.mdt.len()-1 {
				hi = c.cfg.TotalLines
			}
			tr.LinesUpgraded += (hi - lo) - c.strongMode.countRange(lo, hi)
			c.strongMode.setRange(lo, hi)
			c.mdt.set(r, false)
		}
		// Sweep cost covers every line in the visited regions (they are
		// read to discover their mode), not just converted ones.
		tr.SweepCycles = uint64(tr.RegionsSwept) * c.linesPerRegion * uint64(c.cfg.UpgradeCyclesPerLine)
	} else {
		// Full-memory sweep.
		tr.RegionsSwept = 1
		n := c.cfg.TotalLines
		tr.LinesUpgraded = n - c.strongMode.countRange(0, n)
		c.strongMode.setRange(0, n)
		tr.SweepCycles = n * uint64(c.cfg.UpgradeCyclesPerLine)
	}
	tr.EnergyPJ = float64(tr.LinesUpgraded) * c.cfg.UpgradeEnergyPJPerLine

	c.stats.UpgradedLines += tr.LinesUpgraded
	c.stats.Sweeps++
	wasOn := c.downgradeOn
	c.phase = PhaseIdle
	c.downgradeOn = false
	c.windowMisses = 0
	c.chk.OnSweepEnd(nowCPU, tr.LinesUpgraded)
	if c.obs != nil {
		c.gDowngradeOn.Set(0)
		if c.obs.Tracing(obs.KindSweepEnd) {
			c.obs.Emit(obs.Event{T: nowCPU, Kind: obs.KindSweepEnd,
				Lines: tr.LinesUpgraded, Regions: tr.RegionsSwept, Cycles: tr.SweepCycles})
		}
		if wasOn && c.obs.Tracing(obs.KindSMDDisable) {
			c.obs.Emit(obs.Event{T: nowCPU, Kind: obs.KindSMDDisable})
		}
		if c.obs.Tracing(obs.KindMECCTransition) {
			c.obs.Emit(obs.Event{T: nowCPU, Kind: obs.KindMECCTransition, Phase: PhaseIdle.String()})
		}
	}
	return tr, nil
}

// ExitIdle wakes the system into active mode at CPU cycle nowCPU. With
// SMD, ECC-Downgrade starts disabled and the traffic monitor decides;
// without it, downgrades are immediate.
func (c *Controller) ExitIdle(nowCPU uint64) error {
	if c.phase != PhaseIdle {
		return fmt.Errorf("%w: ExitIdle in %v", ErrBadPhase, c.phase)
	}
	c.phase = PhaseActive
	c.downgradeOn = !c.cfg.SMDEnabled
	c.windowStart = nowCPU
	c.windowMisses = 0
	c.lastSeen = nowCPU
	c.chk.OnPhase(nowCPU, true, c.downgradeOn)
	if c.obs != nil {
		c.gDowngradeOn.Set(boolGauge(c.downgradeOn))
		if c.obs.Tracing(obs.KindMECCTransition) {
			c.obs.Emit(obs.Event{T: nowCPU, Kind: obs.KindMECCTransition, Phase: PhaseActive.String()})
		}
		if c.downgradeOn && c.obs.Tracing(obs.KindSMDEnable) {
			// Without SMD the downgrade path opens unconditionally on
			// wake-up; there is no MPKC sample behind the decision.
			c.obs.Emit(obs.Event{T: nowCPU, Kind: obs.KindSMDEnable})
		}
	}
	return nil
}

// MDTTrackedRegions returns how many regions the MDT currently marks.
func (c *Controller) MDTTrackedRegions() int {
	if c.mdt == nil {
		return 0
	}
	return int(c.mdt.count())
}

// MDTTrackedBytes returns the memory covered by marked regions, the
// Fig. 11 metric (line size 64 B).
func (c *Controller) MDTTrackedBytes() uint64 {
	return uint64(c.MDTTrackedRegions()) * c.linesPerRegion * 64
}

// MDTStorageBytes returns the hardware cost of the MDT table (paper:
// 1K entries = 128 bytes).
func (c *Controller) MDTStorageBytes() int {
	if !c.cfg.MDTEnabled {
		return 0
	}
	return (c.cfg.MDTEntries + 7) / 8
}
