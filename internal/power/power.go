// Package power implements the Micron-methodology DRAM power calculator
// the paper uses (TN-46-03/TN-46-12): background power per power state,
// per-command activate/precharge, read/write burst and refresh energies,
// and the idle-mode model of Equation (1) where idle power is a refresh
// component (scaling inversely with refresh period) plus a fixed
// background component. IDD values come from the paper's Table IV.
package power

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dram"
)

// ErrBadParams reports invalid power parameters.
var ErrBadParams = errors.New("power: invalid parameters")

// Params are the memory power parameters (paper Table IV), in volts and
// milliamperes. IDD3N and IDD2N are not listed in Table IV; the defaults
// are typical for the Micron 1 Gb mobile LPDDR part the paper cites and
// only affect absolute (not normalized) numbers.
type Params struct {
	// VDD is the operating voltage.
	VDD float64
	// IDD0 is the one-bank activate-precharge current.
	IDD0 float64
	// IDD2P is precharge power-down standby current.
	IDD2P float64
	// IDD2N is precharge standby current (not in Table IV).
	IDD2N float64
	// IDD3P is active power-down standby current.
	IDD3P float64
	// IDD3N is active standby current (not in Table IV).
	IDD3N float64
	// IDD4 is the burst read/write current, one bank active.
	IDD4 float64
	// IDD5 is the auto-refresh current.
	IDD5 float64
	// IDD8 is the self-refresh current at the JEDEC refresh rate.
	IDD8 float64
	// IDDDPD is the deep-power-down current (not in Table IV; typical
	// mobile parts specify ~10 uA).
	IDDDPD float64
	// SRRefreshFraction is the fraction of self-refresh power spent on
	// the internal refresh pulses at the JEDEC rate; the remainder is
	// fixed background. Calibrated to the paper's Fig. 8, where refresh
	// is just under half of idle power and slowing refresh 16x cuts
	// total idle power by ~43%.
	SRRefreshFraction float64
}

// DefaultParams returns the paper's Table IV values.
func DefaultParams() Params {
	return Params{
		VDD:               1.7,
		IDD0:              95,
		IDD2P:             0.6,
		IDD2N:             15,
		IDD3P:             3,
		IDD3N:             20,
		IDD4:              135,
		IDD5:              100,
		IDD8:              1.3,
		IDDDPD:            0.01,
		SRRefreshFraction: 0.46,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	switch {
	case p.VDD <= 0:
		return fmt.Errorf("%w: VDD=%v", ErrBadParams, p.VDD)
	case p.IDD0 <= 0 || p.IDD4 <= 0 || p.IDD5 <= 0 || p.IDD8 <= 0:
		return fmt.Errorf("%w: nonpositive IDD", ErrBadParams)
	case p.IDD3N < 0 || p.IDD2N < 0 || p.IDD2P < 0 || p.IDD3P < 0 || p.IDDDPD < 0:
		return fmt.Errorf("%w: negative standby IDD", ErrBadParams)
	case p.SRRefreshFraction < 0 || p.SRRefreshFraction > 1:
		return fmt.Errorf("%w: SRRefreshFraction=%v", ErrBadParams, p.SRRefreshFraction)
	}
	return nil
}

// mw converts a current in mA to power in watts at VDD.
func (p Params) mw(mA float64) float64 { return mA * p.VDD / 1000 }

// Breakdown is the active-mode energy split, in joules.
type Breakdown struct {
	// BackgroundJ covers standby and power-down residency.
	BackgroundJ float64 `json:"background_j"`
	// ActPreJ is activate+precharge energy.
	ActPreJ float64 `json:"act_pre_j"`
	// ReadJ and WriteJ are burst energies.
	ReadJ  float64 `json:"read_j"`
	WriteJ float64 `json:"write_j"`
	// RefreshJ is auto-refresh energy.
	RefreshJ float64 `json:"refresh_j"`
	// SelfRefreshJ is energy spent in self-refresh residency.
	SelfRefreshJ float64 `json:"self_refresh_j"`
}

// Total returns the sum of all components.
func (b Breakdown) Total() float64 {
	return b.BackgroundJ + b.ActPreJ + b.ReadJ + b.WriteJ + b.RefreshJ + b.SelfRefreshJ
}

// IdleBreakdown is the idle-mode (self-refresh) power split, in watts
// (paper Fig. 8).
type IdleBreakdown struct {
	// RefreshW is the refresh component at the configured rate.
	RefreshW float64
	// BackgroundW is the fixed self-refresh background component.
	BackgroundW float64
}

// Total returns idle power in watts.
func (b IdleBreakdown) Total() float64 { return b.RefreshW + b.BackgroundW }

// Calculator converts DRAM statistics to energy and power.
// It is immutable and safe for concurrent use.
type Calculator struct {
	p   Params
	cfg dram.Config
}

// NewCalculator builds a calculator for a channel configuration.
func NewCalculator(p Params, cfg dram.Config) (*Calculator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Calculator{p: p, cfg: cfg}, nil
}

// tckSec returns the DRAM clock period in seconds.
func (c *Calculator) tckSec() float64 { return 1 / float64(c.cfg.ClockHz) }

// Energy converts accumulated channel statistics into an energy
// breakdown. Command energies are increments over the active-standby
// background, per the Micron methodology.
func (c *Calculator) Energy(s dram.Stats) Breakdown {
	p := c.p
	tck := c.tckSec()
	tm := c.cfg.Timing
	// Standby currents are drawn by every rank on the channel.
	ranks := float64(c.cfg.RankCount())
	var b Breakdown
	b.BackgroundJ = ranks * (p.mw(p.IDD3N)*float64(s.CyclesActiveStandby)*tck +
		p.mw(p.IDD2P)*float64(s.CyclesPrechargePD)*tck +
		p.mw(p.IDD3P)*float64(s.CyclesActivePD)*tck)
	b.ActPreJ = p.mw(p.IDD0-p.IDD3N) * float64(tm.TRC) * tck * float64(s.NACT)
	b.ReadJ = p.mw(p.IDD4-p.IDD3N) * float64(tm.BL) * tck * float64(s.NRD)
	b.WriteJ = p.mw(p.IDD4-p.IDD3N) * float64(tm.BL) * tck * float64(s.NWR)
	// Per-bank refresh draws roughly 1/banks of the all-bank refresh
	// current for tRFCpb per pulse.
	b.RefreshJ = p.mw(p.IDD5-p.IDD3N)*float64(tm.TRFC)*tck*float64(s.NREF) +
		p.mw(p.IDD5-p.IDD3N)/float64(c.cfg.Banks)*float64(tm.TRFCpb)*tck*float64(s.NREFpb)
	b.SelfRefreshJ = ranks * (c.IdlePower(s.SRDividerBits).Total() * float64(s.CyclesSelfRefresh) * tck)
	return b
}

// ReadLineEnergy returns the energy of a single line read including its
// share of activate-precharge (the paper's "reading a line from memory
// requires 12 nJ" sanity point), assuming a row-buffer miss.
func (c *Calculator) ReadLineEnergy() float64 {
	p := c.p
	tck := c.tckSec()
	tm := c.cfg.Timing
	return p.mw(p.IDD0-p.IDD3N)*float64(tm.TRC)*tck +
		p.mw(p.IDD4-p.IDD3N)*float64(tm.BL)*tck +
		p.mw(p.IDD3N)*float64(tm.TRC+tm.CL+tm.BL)*tck
}

// IdlePower returns the idle-mode self-refresh power of one rank when
// the internal refresh rate is divided by 2^dividerBits (Equation 1):
// the refresh component scales with the pulse rate, the background
// component is fixed. Multiply by RankCount for a multi-rank channel
// (Energy does this internally).
func (c *Calculator) IdlePower(dividerBits int) IdleBreakdown {
	p := c.p
	base := p.mw(p.IDD8)
	refresh := base * p.SRRefreshFraction / float64(uint64(1)<<dividerBits)
	return IdleBreakdown{
		RefreshW:    refresh,
		BackgroundW: base * (1 - p.SRRefreshFraction),
	}
}

// IdlePowerPASR returns idle power in partial-array self refresh: the
// refresh component scales with the retained fraction (the rest of the
// array is not refreshed and loses data).
func (c *Calculator) IdlePowerPASR(retained float64) IdleBreakdown {
	p := c.p
	base := p.mw(p.IDD8)
	return IdleBreakdown{
		RefreshW:    base * p.SRRefreshFraction * retained,
		BackgroundW: base * (1 - p.SRRefreshFraction),
	}
}

// DeepPowerDownPower returns the deep-power-down power (contents lost).
func (c *Calculator) DeepPowerDownPower() float64 {
	return c.p.mw(c.p.IDDDPD)
}

// EnergyOver splits a usage period between active and idle and returns
// (activeJ, idleJ) given an average active power and an idle breakdown —
// the Fig. 10 composition.
func EnergyOver(total time.Duration, idleFraction float64, activeW float64, idle IdleBreakdown) (float64, float64) {
	sec := total.Seconds()
	activeJ := activeW * sec * (1 - idleFraction)
	idleJ := idle.Total() * sec * idleFraction
	return activeJ, idleJ
}
