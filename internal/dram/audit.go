package dram

import (
	"errors"
	"fmt"
)

// ErrAudit reports a timing-constraint violation found by the auditor.
var ErrAudit = errors.New("dram: audit violation")

// CommandKind identifies a recorded command.
type CommandKind int

// Recorded command kinds.
const (
	CmdACT CommandKind = iota + 1
	CmdPRE
	CmdRD
	CmdWR
	CmdREF
	CmdREFpb
)

// String renders the command mnemonic.
func (k CommandKind) String() string {
	switch k {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	case CmdREF:
		return "REF"
	case CmdREFpb:
		return "REFpb"
	default:
		return fmt.Sprintf("CommandKind(%d)", int(k))
	}
}

// CommandRecord is one issued command with its cycle.
type CommandRecord struct {
	// Cycle is the DRAM cycle of issue.
	Cycle uint64
	// Kind is the command; Bank is the global bank id (unused for REF);
	// Row is valid for ACT.
	Kind CommandKind
	Bank int
	Row  int
}

// StateRecord is one power-state transition with its cycle.
type StateRecord struct {
	// Cycle is the DRAM cycle of the transition.
	Cycle uint64
	// From and To are the states before and after it.
	From, To PowerState
}

// Auditor records every command a Channel issues and re-validates the
// whole stream against the timing constraints INDEPENDENTLY of the
// channel's own bookkeeping — the two implementations cross-check each
// other, so a bug in either the Can* predicates or the issue effects
// surfaces as an audit failure in the randomized soak tests. It also
// keeps the channel's power-state timeline, which differential tests
// compare between two ways of driving the same channel.
type Auditor struct {
	cfg     Config
	records []CommandRecord
	states  []StateRecord
}

// NewAuditor builds an auditor for a channel configuration.
func NewAuditor(cfg Config) *Auditor {
	return &Auditor{cfg: cfg}
}

// Record appends one command.
func (a *Auditor) Record(cycle uint64, kind CommandKind, bank, row int) {
	a.records = append(a.records, CommandRecord{Cycle: cycle, Kind: kind, Bank: bank, Row: row})
}

// RecordState appends one power-state transition.
func (a *Auditor) RecordState(cycle uint64, from, to PowerState) {
	a.states = append(a.states, StateRecord{Cycle: cycle, From: from, To: to})
}

// States returns the recorded power-state transitions in order.
func (a *Auditor) States() []StateRecord { return a.states }

// Len returns the number of recorded commands.
func (a *Auditor) Len() int { return len(a.records) }

// Records exposes the raw stream (for debugging failed audits).
func (a *Auditor) Records() []CommandRecord { return a.records }

// ValidateRefreshCadence checks that refresh kept pace over the stream:
// no gap between consecutive refresh events (REF, or a full REFpb
// rotation) exceeds maxGap cycles. Self-refresh residency is outside the
// recorded stream, so run this only over fully-active windows.
func (a *Auditor) ValidateRefreshCadence(maxGap uint64) error {
	var (
		last     uint64
		haveLast bool
		pbCount  int
	)
	note := func(cycle uint64) error {
		if haveLast && cycle-last > maxGap {
			return fmt.Errorf("%w: refresh gap %d cycles (max %d) ending at %d",
				ErrAudit, cycle-last, maxGap, cycle)
		}
		last = cycle
		haveLast = true
		return nil
	}
	for _, rec := range a.records {
		switch rec.Kind {
		case CmdREF:
			if err := note(rec.Cycle); err != nil {
				return err
			}
		case CmdREFpb:
			pbCount++
			if pbCount%a.cfg.TotalBanks() == 0 {
				if err := note(rec.Cycle); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Validate replays the command stream and checks every constraint,
// returning the first violation found.
func (a *Auditor) Validate() error {
	t := a.cfg.Timing
	nBanks := a.cfg.TotalBanks()
	nRanks := a.cfg.RankCount()

	type bankTrack struct {
		open         bool
		lastACT      uint64
		haveACT      bool
		lastPRE      uint64
		havePRE      bool
		lastColumn   uint64 // most recent RD/WR issue on this bank
		lastRDIssue  uint64
		haveRD       bool
		wrDataEnd    uint64
		blockedUntil uint64 // REF / REFpb blackout
	}
	type rankTrack struct {
		actTimes  []uint64
		wrDataEnd uint64
	}
	banks := make([]bankTrack, nBanks)
	ranks := make([]rankTrack, nRanks)
	var (
		lastCol      uint64
		haveCol      bool
		busFreeAt    uint64
		lastDataRank = -1
	)

	violation := func(rec CommandRecord, format string, args ...any) error {
		return fmt.Errorf("%w: cycle %d %v bank %d: %s",
			ErrAudit, rec.Cycle, rec.Kind, rec.Bank, fmt.Sprintf(format, args...))
	}

	for _, rec := range a.records {
		now := rec.Cycle
		switch rec.Kind {
		case CmdACT:
			b := &banks[rec.Bank]
			rk := &ranks[a.cfg.RankOfBank(rec.Bank)]
			if b.open {
				return violation(rec, "ACT on open bank")
			}
			if b.haveACT && now < b.lastACT+uint64(t.TRC) {
				return violation(rec, "tRC: last ACT at %d", b.lastACT)
			}
			if now < b.blockedUntil {
				return violation(rec, "refresh blackout until %d", b.blockedUntil)
			}
			if b.havePRE && now < b.lastPRE+uint64(t.TRP) {
				return violation(rec, "tRP: PRE at %d", b.lastPRE)
			}
			if n := len(rk.actTimes); n > 0 && now < rk.actTimes[n-1]+uint64(t.TRRD) {
				return violation(rec, "tRRD: rank ACT at %d", rk.actTimes[n-1])
			}
			if n := len(rk.actTimes); n >= 4 && now < rk.actTimes[n-4]+uint64(t.TFAW) {
				return violation(rec, "tFAW: 4th-prior ACT at %d", rk.actTimes[n-4])
			}
			rk.actTimes = append(rk.actTimes, now)
			b.open = true
			b.lastACT = now
			b.haveACT = true
		case CmdPRE:
			b := &banks[rec.Bank]
			if !b.open {
				return violation(rec, "PRE on closed bank")
			}
			if now < b.lastACT+uint64(t.TRAS) {
				return violation(rec, "tRAS: ACT at %d", b.lastACT)
			}
			if b.haveRD && now < b.lastRDIssue+uint64(t.TRTP) {
				return violation(rec, "tRTP: RD at %d", b.lastRDIssue)
			}
			if b.wrDataEnd != 0 && now < b.wrDataEnd+uint64(t.TWR) {
				return violation(rec, "tWR: write data end %d", b.wrDataEnd)
			}
			b.open = false
			b.lastPRE = now
			b.havePRE = true
		case CmdRD, CmdWR:
			b := &banks[rec.Bank]
			rank := a.cfg.RankOfBank(rec.Bank)
			rk := &ranks[rank]
			if !b.open {
				return violation(rec, "column command on closed bank")
			}
			if now < b.lastACT+uint64(t.TRCD) {
				return violation(rec, "tRCD: ACT at %d", b.lastACT)
			}
			if haveCol && now < lastCol+uint64(t.TCCD) {
				return violation(rec, "tCCD: column at %d", lastCol)
			}
			var dataStart, dataEnd uint64
			if rec.Kind == CmdRD {
				if rk.wrDataEnd != 0 && now < rk.wrDataEnd+uint64(t.TWTR) {
					return violation(rec, "tWTR: rank write data end %d", rk.wrDataEnd)
				}
				dataStart = now + uint64(t.CL)
				dataEnd = dataStart + uint64(t.BL)
				b.lastRDIssue = now
				b.haveRD = true
			} else {
				dataStart = now + uint64(t.CWL)
				dataEnd = dataStart + uint64(t.BL)
				rk.wrDataEnd = dataEnd
				b.wrDataEnd = dataEnd
			}
			required := busFreeAt
			if lastDataRank >= 0 && lastDataRank != rank {
				required += uint64(t.TRTRS)
			}
			if dataStart < required {
				return violation(rec, "bus conflict: data at %d, bus free %d", dataStart, required)
			}
			busFreeAt = dataEnd
			lastDataRank = rank
			lastCol = now
			haveCol = true
			b.lastColumn = now
		case CmdREF:
			for i := range banks {
				if banks[i].open {
					return violation(rec, "REF with bank %d open", i)
				}
				if now < banks[i].blockedUntil {
					return violation(rec, "REF during blackout of bank %d", i)
				}
				if banks[i].havePRE && now < banks[i].lastPRE+uint64(t.TRP) {
					return violation(rec, "REF before tRP of bank %d", i)
				}
				banks[i].blockedUntil = now + uint64(t.TRFC)
			}
		case CmdREFpb:
			b := &banks[rec.Bank]
			if b.open {
				return violation(rec, "REFpb with bank open")
			}
			if now < b.blockedUntil {
				return violation(rec, "REFpb during blackout until %d", b.blockedUntil)
			}
			b.blockedUntil = now + uint64(t.TRFCpb)
		default:
			return violation(rec, "unknown command")
		}
	}
	return nil
}
