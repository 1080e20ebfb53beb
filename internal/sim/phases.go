package sim

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/retention"
)

// Phase-pattern simulation: the Fig. 1 usage model of alternating active
// bursts and long idle periods. Each idle entry drains the memory
// controller, performs the scheme's ECC-Upgrade transition (MECC), puts
// the DRAM into self refresh at the scheme's divider, and fast-forwards;
// wake-up reverses the sequence. Energy accumulates in the channel
// statistics across all phases, self-refresh residency included.

// PhaseTransition summarizes one idle entry.
type PhaseTransition struct {
	// SweepCycles is the CPU-cycle cost of the ECC-Upgrade sweep.
	SweepCycles uint64
	// LinesUpgraded counts converted lines (MECC only).
	LinesUpgraded uint64
	// DividerBits is the self-refresh rate divider used for the idle
	// period.
	DividerBits int
}

// RunActive executes the given number of additional instructions in
// active mode. The runner must not be idle.
func (r *Runner) RunActive(instructions int64) error {
	seg, err := r.beginActive(instructions)
	if err != nil {
		return err
	}
	for err == nil && r.segmentBudget > 0 {
		rec, ok := r.src.Next()
		if !ok {
			break
		}
		err = r.step(rec)
	}
	return r.endActive(seg, err)
}

// activeSegment is an active segment in progress: its trace span and
// the CPU cycle it began at.
type activeSegment struct {
	span  *obs.Span
	start uint64
}

// beginActive opens an active segment of the given instruction budget;
// step then consumes its records.
func (r *Runner) beginActive(instructions int64) (activeSegment, error) {
	if r.idle {
		return activeSegment{}, fmt.Errorf("%w: RunActive while idle", core.ErrBadPhase)
	}
	r.segmentBudget = instructions
	r.prog.SetPhase("active")
	start := r.cpu.Now()
	seg := activeSegment{span: r.runSpan.Child("active", start), start: start}
	r.updateRefreshShift()
	return seg, nil
}

// endActive closes the segment. Unless a step failed (err != nil) it
// first drains outstanding traffic; it returns err or the drain's error.
func (r *Runner) endActive(seg activeSegment, err error) error {
	if err == nil {
		err = r.drain()
	}
	seg.span.End(r.cpu.Now())
	r.activeCycles += r.cpu.Now() - seg.start
	return err
}

// GoIdle transitions to idle mode for the given wall-clock duration:
// outstanding traffic drains, the scheme's upgrade sweep runs, and the
// DRAM sits in self refresh at the scheme's divider.
func (r *Runner) GoIdle(duration time.Duration) error {
	if r.idle {
		return fmt.Errorf("%w: GoIdle while idle", core.ErrBadPhase)
	}
	if duration < 0 {
		return fmt.Errorf("%w: idle %v", ErrBadDuration, duration)
	}
	// Drain all queued traffic so the banks can be precharged.
	for len(r.pendingWB) > 0 {
		r.stepDRAM()
	}
	if _, err := r.ctl.DrainAll(10_000_000); err != nil {
		return err
	}
	// The prefetch buffer does not survive the power transition.
	clear(r.prefReady)
	clear(r.prefInflight)
	clear(r.prefInflightAddr)
	r.prefFIFO = r.prefFIFO[:0]
	r.prog.SetPhase("idle")
	r.idleSpan = r.runSpan.Child("idle", r.cpu.Now())
	// The scheme's idle transition (ECC-Upgrade for MECC). The sweep
	// span's extent is the modeled sweep latency: the CPU clock itself
	// does not advance until the wake-up resync.
	sweepSpan := r.idleSpan.Child("sweep", r.cpu.Now())
	tr, err := r.sch.enterIdle(r.cpu.Now())
	if err != nil {
		sweepSpan.End(r.cpu.Now())
		return err
	}
	sweepSpan.End(r.cpu.Now() + tr.SweepCycles)
	r.lastTransition = tr
	// The sweep occupies the memory for SweepCycles of CPU time; model
	// its residency as active-standby time plus the line traffic energy
	// (already charged by the scheme's energy counters).
	sweepDRAM := tr.SweepCycles / r.ratio()
	r.ch.AdvanceTo(r.ch.Now() + sweepDRAM)

	// Close any open rows, then enter self refresh.
	for !r.ch.AllPrecharged() {
		for b := 0; b < r.cfg.DRAM.TotalBanks(); b++ {
			if r.ch.AnyRowOpen(b) && r.ch.CanPRE(b) {
				if err := r.ch.PRE(b); err != nil {
					return err
				}
			}
		}
		r.ch.Tick()
	}
	if r.ch.State() == dram.StatePrechargePD || r.ch.State() == dram.StateActivePD {
		if err := r.ch.ExitPowerDown(); err != nil {
			return err
		}
	}
	r.rchk.ExpectDivider(tr.DividerBits)
	if err := r.ch.EnterSelfRefresh(tr.DividerBits); err != nil {
		return err
	}
	idleDRAM := uint64(duration.Seconds() * float64(r.cfg.DRAM.ClockHz))
	r.ch.AdvanceTo(r.ch.Now() + idleDRAM)
	r.idle = true
	r.idleTime += duration
	r.publishObs()
	return nil
}

// WakeUp exits idle mode; subsequent RunActive calls continue the
// workload. The CPU clock jumps over the idle period.
func (r *Runner) WakeUp() error {
	if !r.idle {
		return fmt.Errorf("%w: WakeUp while active", core.ErrBadPhase)
	}
	if err := r.ch.ExitSelfRefresh(); err != nil {
		return err
	}
	r.rchk.ExpectDivider(-1)
	// The device refreshed itself during the idle period; restart the
	// controller's distributed-refresh schedule from the current cycle.
	// Without the resync every tREFI interval that elapsed while asleep
	// would be "owed", and the controller would spend the whole next
	// active phase issuing catch-up REF commands back to back.
	r.ctl.ResyncRefresh()
	// Re-align the CPU clock with the DRAM clock after the jump.
	r.cpu.StallUntil(r.ch.Now() * r.ratio())
	if err := r.sch.exitIdle(r.cpu.Now()); err != nil {
		return err
	}
	r.idleSpan.End(r.cpu.Now())
	r.idleSpan = nil
	r.updateRefreshShift()
	r.idle = false
	r.publishObs()
	return nil
}

// LastTransition returns the most recent idle-entry summary.
func (r *Runner) LastTransition() PhaseTransition { return r.lastTransition }

// IdleTime returns the accumulated idle wall-clock time.
func (r *Runner) IdleTime() time.Duration { return r.idleTime }

// SetTempC changes the junction temperature for subsequent phases (a
// scenario's thermal profile). Out-of-range or NaN values are rejected
// with ErrBadTemperature and leave the current temperature unchanged —
// the model never clamps silently. Temperature does not perturb timing;
// it only feeds the retention-failure evaluation of idle periods.
func (r *Runner) SetTempC(tempC float64) error {
	if err := retention.CheckTemp(tempC); err != nil {
		return fmt.Errorf("%w: %g degC (want %g..%g)",
			ErrBadTemperature, tempC, retention.MinTempC, retention.MaxTempC)
	}
	r.tempC = tempC
	return nil
}

// TempC returns the current junction temperature. A runner built from a
// zero-valued Config.TempC reads as retention.NominalTempC.
func (r *Runner) TempC() float64 { return r.tempC }

// SetBaseCPI changes the core's base CPI for subsequent instructions —
// the first-order DVFS model: halving the clock doubles the CPI of the
// non-memory component while DRAM timing is unchanged. Rejects
// unphysical values (see cpu.Core.SetBaseCPI); safe mid-run.
func (r *Runner) SetBaseCPI(cpi float64) error { return r.cpu.SetBaseCPI(cpi) }

// Result finalizes and returns the figures of merit over everything run
// so far (active phases only for IPC; energy includes idle residency).
func (r *Runner) Result() Result {
	return r.result(r.checkpoints)
}
