package dram

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/checker"
	"repro/internal/obs"
)

// Errors returned on illegal command sequences. The memory controller is
// expected to consult the Can* predicates first; an error therefore
// indicates a scheduler bug, and the tests assert both directions.
var (
	ErrTimingViolation = errors.New("dram: timing constraint violated")
	ErrBadState        = errors.New("dram: command illegal in current state")
)

// PowerState is the channel's background power state.
type PowerState int

// Power states (paper Section II-A and Table IV's IDD taxonomy).
const (
	// StateActiveStandby: clock running, at least the potential for open
	// rows; commands may issue.
	StateActiveStandby PowerState = iota + 1
	// StatePrechargePD: precharge power-down (IDD2P), entered by the
	// aggressive power-down scheduler when idle.
	StatePrechargePD
	// StateActivePD: active power-down (IDD3P) with rows left open.
	StateActivePD
	// StateSelfRefresh: self refresh (IDD8-class); the device refreshes
	// itself, optionally at a divided rate.
	StateSelfRefresh
	// StatePASR: partial array self refresh — only a fraction of the
	// array is refreshed; the rest loses its contents (Section II-A).
	StatePASR
	// StateDeepPowerDown: no refresh at all; the full array loses its
	// contents and must be re-initialized on exit.
	StateDeepPowerDown
)

// String renders the power state.
func (s PowerState) String() string {
	switch s {
	case StateActiveStandby:
		return "active-standby"
	case StatePrechargePD:
		return "precharge-powerdown"
	case StateActivePD:
		return "active-powerdown"
	case StateSelfRefresh:
		return "self-refresh"
	case StatePASR:
		return "partial-array-self-refresh"
	case StateDeepPowerDown:
		return "deep-power-down"
	default:
		return fmt.Sprintf("PowerState(%d)", int(s))
	}
}

// Stats accumulates command counts and state residency, the inputs to the
// power model.
type Stats struct {
	// Command counts. NREFpb counts per-bank refreshes (LPDDR REFpb),
	// which cost TRFCpb/TRFC of an all-bank REF's energy each.
	NACT   uint64 `json:"n_act"`
	NPRE   uint64 `json:"n_pre"`
	NRD    uint64 `json:"n_rd"`
	NWR    uint64 `json:"n_wr"`
	NREF   uint64 `json:"n_ref"`
	NREFpb uint64 `json:"n_refpb"`
	// NSelfRefreshPulses counts internal refresh pulses completed during
	// self refresh (after rate division).
	NSelfRefreshPulses uint64 `json:"n_self_refresh_pulses"`
	// State residency in DRAM cycles.
	CyclesActiveStandby uint64 `json:"cycles_active_standby"`
	CyclesPrechargePD   uint64 `json:"cycles_precharge_pd"`
	CyclesActivePD      uint64 `json:"cycles_active_pd"`
	CyclesSelfRefresh   uint64 `json:"cycles_self_refresh"`
	// CyclesPASR and CyclesDPD are residency in the partial-array and
	// deep-power-down states; PASRRetained is the retained fraction of
	// the most recent PASR episode (for the power model).
	CyclesPASR   uint64  `json:"cycles_pasr"`
	CyclesDPD    uint64  `json:"cycles_dpd"`
	PASRRetained float64 `json:"pasr_retained"`
	// SRDividerBits is the refresh-rate divider of the most recent
	// self-refresh episode (for the power model's refresh component).
	SRDividerBits int `json:"sr_divider_bits"`
	// RowHits/RowMisses classify read+write column accesses.
	RowHits   uint64 `json:"row_hits"`
	RowMisses uint64 `json:"row_misses"`
}

// TotalCycles returns the cycles accounted across all states.
func (s Stats) TotalCycles() uint64 {
	return s.CyclesActiveStandby + s.CyclesPrechargePD + s.CyclesActivePD +
		s.CyclesSelfRefresh + s.CyclesPASR + s.CyclesDPD
}

type bankState struct {
	rowOpen bool
	openRow int
	// Earliest cycles at which each command class may issue.
	nextACT, nextPRE, nextRD, nextWR uint64
}

// rankState carries the per-rank timing constraints (bank ids are
// global; each rank owns Banks consecutive ids).
type rankState struct {
	nextACT      uint64    // tRRD within the rank
	actWindow    [4]uint64 // issue times of the last four ACTs (tFAW)
	actWindowIdx int
	actCount     uint64
	wrDataEnd    uint64 // end of most recent write burst (tWTR, tWR)
}

// Channel is one DRAM channel with one or more ranks sharing the data
// bus. It exposes a command-level interface with explicit legality
// checks; the memory controller owns all policy. Bank ids are global
// (rank*Banks + bank). Channel is not safe for concurrent use.
type Channel struct {
	cfg Config
	dec decodeParams
	// bankShift is log2(Banks): rankIndex runs in every timing check
	// and a shift beats the integer division.
	bankShift uint
	now       uint64
	banks     []bankState
	ranks     []rankState
	// Channel-level constraints.
	nextCol      uint64 // tCCD for RD/WR
	busFreeAt    uint64 // data bus occupancy
	lastDataRank int    // rank of the most recent data burst (-1 = none)
	nextCmdAt    uint64 // blackout after REF / power-state exits
	state        PowerState
	pdEnteredAt  uint64
	// Self-refresh rate divider: an internal counter divides the refresh
	// pulse rate by 2^dividerBits (paper III-B: a 4-bit counter turns
	// 64 ms into 1 s).
	dividerBits int
	srEnteredAt uint64
	// pasrRetained is the fraction of the array refreshed in PASR.
	pasrRetained float64
	// auditor, when set, records every issued command for independent
	// post-hoc constraint validation.
	auditor *Auditor
	// obs, when set, receives structured events of the kinds it
	// traces; nil (the default) costs one branch per command.
	obs *obs.Recorder
	// chk, when set, is told about fast-forwards so the refresh-ratio
	// invariant can exclude them; nil (the default) costs one nil check.
	chk *checker.RefreshTracker
	// contentsLost latches after PASR (partially) or DPD (fully) until
	// acknowledged via ContentsLost.
	contentsLost float64
	stats        Stats
}

// NewChannel builds a channel in active-standby with all banks precharged.
func NewChannel(cfg Config) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Channel{
		cfg:          cfg,
		dec:          cfg.decodeParams(),
		bankShift:    uint(bits.TrailingZeros64(uint64(cfg.Banks))),
		banks:        make([]bankState, cfg.TotalBanks()),
		ranks:        make([]rankState, cfg.RankCount()),
		lastDataRank: -1,
		state:        StateActiveStandby,
	}, nil
}

// Decode maps a line address to rank/bank/row/column using parameters
// precomputed at construction; identical to Config.Decode but without
// the per-call Config copies.
func (ch *Channel) Decode(lineAddr uint64) Coord { return ch.dec.decode(lineAddr) }

// Config returns the channel configuration.
func (ch *Channel) Config() Config { return ch.cfg }

// Now returns the current DRAM cycle.
func (ch *Channel) Now() uint64 { return ch.now }

// State returns the current power state.
func (ch *Channel) State() PowerState { return ch.state }

// Stats returns a copy of the accumulated statistics.
func (ch *Channel) Stats() Stats { return ch.stats }

// SetAuditor attaches a command recorder (nil detaches). Auditing costs
// one append per command; attach it in tests, not in benchmark loops.
func (ch *Channel) SetAuditor(a *Auditor) { ch.auditor = a }

// SetObserver attaches a telemetry recorder (nil detaches): when the
// recorder traces the kind, every issued command emits a KindDRAMCmd
// event stamped in DRAM cycles and every self-refresh entry a
// KindRefreshRate event. The dram_<cmd>_total and
// dram_self_refresh_pulses_total counters are published from Stats by
// the simulation runner.
func (ch *Channel) SetObserver(r *obs.Recorder) { ch.obs = r }

// SetChecker attaches a refresh-ratio invariant tracker (nil detaches).
// The channel reports fast-forwarded stretches so the tracker can
// exclude them from auto-refresh accounting and cross-check the pulses
// credited during self refresh.
func (ch *Channel) SetChecker(t *checker.RefreshTracker) { ch.chk = t }

// record notes an issued command when an auditor is attached or the
// observer traces DRAM commands.
func (ch *Channel) record(kind CommandKind, bank, row int) {
	if ch.auditor != nil {
		ch.auditor.Record(ch.now, kind, bank, row)
	}
	if ch.obs.Tracing(obs.KindDRAMCmd) {
		ch.obs.Emit(obs.Event{T: ch.now, Kind: obs.KindDRAMCmd, Cmd: kind.String(), Bank: bank, Row: row})
	}
}

// Tick advances time by one DRAM cycle, accounting state residency.
func (ch *Channel) Tick() {
	switch ch.state {
	case StateActiveStandby:
		ch.stats.CyclesActiveStandby++
	case StatePrechargePD:
		ch.stats.CyclesPrechargePD++
	case StateActivePD:
		ch.stats.CyclesActivePD++
	case StateSelfRefresh:
		ch.stats.CyclesSelfRefresh++
	case StatePASR:
		ch.stats.CyclesPASR++
	case StateDeepPowerDown:
		ch.stats.CyclesDPD++
	}
	ch.now++
}

// AdvanceTo fast-forwards to the given cycle (used for long quiescent
// stretches; residency is accounted to the current state).
func (ch *Channel) AdvanceTo(cycle uint64) {
	if cycle <= ch.now {
		return
	}
	delta := cycle - ch.now
	switch ch.state {
	case StateActiveStandby:
		ch.stats.CyclesActiveStandby += delta
	case StatePrechargePD:
		ch.stats.CyclesPrechargePD += delta
	case StateActivePD:
		ch.stats.CyclesActivePD += delta
	case StateSelfRefresh:
		ch.stats.CyclesSelfRefresh += delta
		// Account the self-refresh pulses that elapsed.
		eff := uint64(ch.cfg.Timing.TREFI) << ch.dividerBits
		ch.stats.NSelfRefreshPulses += delta / eff
		ch.chk.OnAdvance(ch.now, delta, true, delta/eff)
		ch.now = cycle
		return
	case StatePASR:
		ch.stats.CyclesPASR += delta
		eff := uint64(ch.cfg.Timing.TREFI) << ch.dividerBits
		ch.stats.NSelfRefreshPulses += delta / eff
		ch.chk.OnAdvance(ch.now, delta, true, delta/eff)
		ch.now = cycle
		return
	case StateDeepPowerDown:
		ch.stats.CyclesDPD += delta
	}
	ch.chk.OnAdvance(ch.now, delta, false, 0)
	ch.now = cycle
}

// SkipTo fast-forwards through a stretch the controller has proven
// quiescent: no commands issue, no state transitions occur, and the
// distributed auto-refresh schedule keeps running at its normal rate on
// the far side. Residency is accounted to the current state exactly as
// repeated Ticks would. Unlike AdvanceTo, the span is NOT reported to
// the refresh checker as excluded: these cycles stay inside the
// auto-refresh accounting window, because REF commands continue to be
// issued for them on schedule. Correspondingly no self-refresh pulses
// are credited, so SkipTo is legal only in the externally-refreshed
// states (active standby and the two power-down states); anything else
// returns ErrBadState.
func (ch *Channel) SkipTo(cycle uint64) error {
	if cycle <= ch.now {
		return nil
	}
	delta := cycle - ch.now
	switch ch.state {
	case StateActiveStandby:
		ch.stats.CyclesActiveStandby += delta
	case StatePrechargePD:
		ch.stats.CyclesPrechargePD += delta
	case StateActivePD:
		ch.stats.CyclesActivePD += delta
	default:
		return fmt.Errorf("%w: SkipTo from %v", ErrBadState, ch.state)
	}
	ch.now = cycle
	return nil
}

func (ch *Channel) commandsAllowed() bool {
	return ch.state == StateActiveStandby && ch.now >= ch.nextCmdAt
}

// RowOpen reports whether the bank currently has the given row open.
func (ch *Channel) RowOpen(bank, row int) bool {
	b := &ch.banks[bank]
	return b.rowOpen && b.openRow == row
}

// AnyRowOpen reports whether the bank has any open row.
func (ch *Channel) AnyRowOpen(bank int) bool { return ch.banks[bank].rowOpen }

// OpenRow returns the open row of a bank, or -1.
func (ch *Channel) OpenRow(bank int) int {
	b := &ch.banks[bank]
	if !b.rowOpen {
		return -1
	}
	return b.openRow
}

// rankIndex returns the rank owning a global bank id (RankOfBank
// without the Config copy — this runs in every timing check).
func (ch *Channel) rankIndex(bank int) int { return bank >> ch.bankShift }

// rankOf returns the rank state owning a global bank id.
func (ch *Channel) rankOf(bank int) *rankState {
	return &ch.ranks[ch.rankIndex(bank)]
}

// fawOK reports whether a new ACT at cycle `now` keeps at most four ACTs
// in the rank's tFAW window.
func (ch *Channel) fawOK(rk *rankState) bool {
	if rk.actCount < uint64(len(rk.actWindow)) {
		return true
	}
	oldest := rk.actWindow[rk.actWindowIdx]
	return ch.now >= oldest+uint64(ch.cfg.Timing.TFAW)
}

// CanACT reports whether an activate to the bank may issue now.
func (ch *Channel) CanACT(bank int) bool {
	b := &ch.banks[bank]
	rk := ch.rankOf(bank)
	return ch.commandsAllowed() && !b.rowOpen &&
		ch.now >= b.nextACT && ch.now >= rk.nextACT && ch.fawOK(rk)
}

// ACT opens a row in a bank.
func (ch *Channel) ACT(bank, row int) error {
	if !ch.CanACT(bank) {
		return fmt.Errorf("%w: ACT bank %d at %d", errFor(ch, bank), bank, ch.now)
	}
	t := &ch.cfg.Timing
	b := &ch.banks[bank]
	rk := ch.rankOf(bank)
	b.rowOpen = true
	b.openRow = row
	b.nextRD = ch.now + uint64(t.TRCD)
	b.nextWR = ch.now + uint64(t.TRCD)
	b.nextPRE = maxU64(b.nextPRE, ch.now+uint64(t.TRAS))
	b.nextACT = ch.now + uint64(t.TRC)
	rk.nextACT = ch.now + uint64(t.TRRD)
	rk.actWindow[rk.actWindowIdx] = ch.now
	rk.actWindowIdx = (rk.actWindowIdx + 1) % len(rk.actWindow)
	rk.actCount++
	ch.stats.NACT++
	ch.record(CmdACT, bank, row)
	return nil
}

// busFreeFor returns when the data bus is usable for the given rank: a
// burst following one from a different rank pays the tRTRS turnaround.
func (ch *Channel) busFreeFor(rank int) uint64 {
	if ch.lastDataRank >= 0 && ch.lastDataRank != rank {
		return ch.busFreeAt + uint64(ch.cfg.Timing.TRTRS)
	}
	return ch.busFreeAt
}

// CanRD reports whether a read to the bank's open row may issue now.
func (ch *Channel) CanRD(bank, row int) bool {
	b := &ch.banks[bank]
	rank := ch.rankIndex(bank)
	rk := &ch.ranks[rank]
	t := &ch.cfg.Timing
	dataStart := ch.now + uint64(t.CL)
	return ch.commandsAllowed() && b.rowOpen && b.openRow == row &&
		ch.now >= b.nextRD && ch.now >= ch.nextCol &&
		dataStart >= ch.busFreeFor(rank) &&
		(rk.wrDataEnd == 0 || ch.now >= rk.wrDataEnd+uint64(t.TWTR))
}

// RD issues a read; it returns the DRAM cycle at which the data burst
// completes (the line is available to the controller then).
func (ch *Channel) RD(bank, row int) (uint64, error) {
	if !ch.CanRD(bank, row) {
		return 0, fmt.Errorf("%w: RD bank %d at %d", errFor(ch, bank), bank, ch.now)
	}
	t := &ch.cfg.Timing
	b := &ch.banks[bank]
	dataEnd := ch.now + uint64(t.CL) + uint64(t.BL)
	ch.busFreeAt = dataEnd
	ch.lastDataRank = ch.rankIndex(bank)
	ch.nextCol = ch.now + uint64(t.TCCD)
	b.nextPRE = maxU64(b.nextPRE, ch.now+uint64(t.TRTP))
	ch.stats.NRD++
	ch.record(CmdRD, bank, row)
	return dataEnd, nil
}

// CanWR reports whether a write to the bank's open row may issue now.
func (ch *Channel) CanWR(bank, row int) bool {
	b := &ch.banks[bank]
	rank := ch.rankIndex(bank)
	t := &ch.cfg.Timing
	dataStart := ch.now + uint64(t.CWL)
	return ch.commandsAllowed() && b.rowOpen && b.openRow == row &&
		ch.now >= b.nextWR && ch.now >= ch.nextCol &&
		dataStart >= ch.busFreeFor(rank)
}

// WR issues a write; the burst completes at the returned cycle.
func (ch *Channel) WR(bank, row int) (uint64, error) {
	if !ch.CanWR(bank, row) {
		return 0, fmt.Errorf("%w: WR bank %d at %d", errFor(ch, bank), bank, ch.now)
	}
	t := &ch.cfg.Timing
	b := &ch.banks[bank]
	rank := ch.rankIndex(bank)
	dataEnd := ch.now + uint64(t.CWL) + uint64(t.BL)
	ch.busFreeAt = dataEnd
	ch.lastDataRank = rank
	ch.nextCol = ch.now + uint64(t.TCCD)
	ch.ranks[rank].wrDataEnd = dataEnd
	b.nextPRE = maxU64(b.nextPRE, dataEnd+uint64(t.TWR))
	ch.stats.NWR++
	ch.record(CmdWR, bank, row)
	return dataEnd, nil
}

// The Earliest* queries return the first cycle at which the
// corresponding command could issue, assuming the channel receives no
// commands in between (bank and bus state static). Each mirrors its
// Can* predicate exactly: with no intervening commands, Can* holds at
// cycle t iff t >= Earliest*. The controller's FR-FCFS pass uses them
// both to test whether a command can issue now and to find the next
// scheduling edge when none can; rowOpen/row-match preconditions are the
// caller's job, and all assume active standby, the only state in which
// commands issue.

// EarliestRD mirrors CanRD's timing terms.
func (ch *Channel) EarliestRD(bank int) uint64 {
	b := &ch.banks[bank]
	rank := ch.rankIndex(bank)
	rk := &ch.ranks[rank]
	t := &ch.cfg.Timing
	at := maxU64(ch.nextCmdAt, maxU64(b.nextRD, ch.nextCol))
	if bus := ch.busFreeFor(rank); bus > uint64(t.CL) {
		at = maxU64(at, bus-uint64(t.CL))
	}
	if rk.wrDataEnd != 0 {
		at = maxU64(at, rk.wrDataEnd+uint64(t.TWTR))
	}
	return at
}

// EarliestWR mirrors CanWR's timing terms.
func (ch *Channel) EarliestWR(bank int) uint64 {
	b := &ch.banks[bank]
	rank := ch.rankIndex(bank)
	t := &ch.cfg.Timing
	at := maxU64(ch.nextCmdAt, maxU64(b.nextWR, ch.nextCol))
	if bus := ch.busFreeFor(rank); bus > uint64(t.CWL) {
		at = maxU64(at, bus-uint64(t.CWL))
	}
	return at
}

// EarliestACT mirrors CanACT's timing terms (tRC, tRRD, tFAW).
func (ch *Channel) EarliestACT(bank int) uint64 {
	b := &ch.banks[bank]
	rk := ch.rankOf(bank)
	at := maxU64(ch.nextCmdAt, maxU64(b.nextACT, rk.nextACT))
	if rk.actCount >= uint64(len(rk.actWindow)) {
		at = maxU64(at, rk.actWindow[rk.actWindowIdx]+uint64(ch.cfg.Timing.TFAW))
	}
	return at
}

// EarliestPRE mirrors CanPRE's timing terms (tRAS, tRTP, tWR).
func (ch *Channel) EarliestPRE(bank int) uint64 {
	return maxU64(ch.nextCmdAt, ch.banks[bank].nextPRE)
}

// CanPRE reports whether the bank may precharge now.
func (ch *Channel) CanPRE(bank int) bool {
	b := &ch.banks[bank]
	return ch.commandsAllowed() && b.rowOpen && ch.now >= b.nextPRE
}

// PRE closes the bank's open row.
func (ch *Channel) PRE(bank int) error {
	if !ch.CanPRE(bank) {
		return fmt.Errorf("%w: PRE bank %d at %d", errFor(ch, bank), bank, ch.now)
	}
	b := &ch.banks[bank]
	b.rowOpen = false
	b.nextACT = maxU64(b.nextACT, ch.now+uint64(ch.cfg.Timing.TRP))
	ch.stats.NPRE++
	ch.record(CmdPRE, bank, 0)
	return nil
}

// AllPrecharged reports whether every bank is closed.
func (ch *Channel) AllPrecharged() bool {
	for i := range ch.banks {
		if ch.banks[i].rowOpen {
			return false
		}
	}
	return true
}

// CanREF reports whether an all-bank auto-refresh may issue now.
func (ch *Channel) CanREF() bool {
	if !ch.commandsAllowed() || !ch.AllPrecharged() {
		return false
	}
	for i := range ch.banks {
		if ch.now < ch.banks[i].nextACT {
			return false
		}
	}
	return true
}

// REF issues an all-bank auto refresh; the channel is busy for tRFC.
func (ch *Channel) REF() error {
	if !ch.CanREF() {
		return fmt.Errorf("%w: REF at %d", errFor(ch, 0), ch.now)
	}
	busyUntil := ch.now + uint64(ch.cfg.Timing.TRFC)
	for i := range ch.banks {
		ch.banks[i].nextACT = maxU64(ch.banks[i].nextACT, busyUntil)
	}
	ch.nextCmdAt = maxU64(ch.nextCmdAt, busyUntil)
	ch.stats.NREF++
	ch.record(CmdREF, 0, 0)
	return nil
}

// CanREFpb reports whether a per-bank refresh may issue to the bank now:
// the bank must be precharged and past its timing, while other banks may
// keep serving requests (the whole point of REFpb).
func (ch *Channel) CanREFpb(bank int) bool {
	if !ch.commandsAllowed() {
		return false
	}
	b := &ch.banks[bank]
	return !b.rowOpen && ch.now >= b.nextACT
}

// REFpb refreshes one bank; only that bank is blocked, for tRFCpb.
func (ch *Channel) REFpb(bank int) error {
	if !ch.CanREFpb(bank) {
		return fmt.Errorf("%w: REFpb bank %d at %d", errFor(ch, bank), bank, ch.now)
	}
	b := &ch.banks[bank]
	b.nextACT = maxU64(b.nextACT, ch.now+uint64(ch.cfg.Timing.TRFCpb))
	ch.stats.NREFpb++
	ch.record(CmdREFpb, bank, 0)
	return nil
}

// EnterPowerDown moves to precharge or active power-down depending on
// whether rows are open (the aggressive power-down policy of Table II's
// baseline scheduler).
func (ch *Channel) EnterPowerDown() error {
	if ch.state != StateActiveStandby {
		return fmt.Errorf("%w: power-down from %v", ErrBadState, ch.state)
	}
	if ch.AllPrecharged() {
		ch.state = StatePrechargePD
	} else {
		ch.state = StateActivePD
	}
	ch.pdEnteredAt = ch.now
	return nil
}

// ExitPowerDown returns to active standby; commands stall for tXP.
func (ch *Channel) ExitPowerDown() error {
	if ch.state != StatePrechargePD && ch.state != StateActivePD {
		return fmt.Errorf("%w: power-down exit from %v", ErrBadState, ch.state)
	}
	minExit := ch.pdEnteredAt + uint64(ch.cfg.Timing.TCKE)
	exitAt := maxU64(ch.now, minExit)
	ch.state = StateActiveStandby
	ch.nextCmdAt = maxU64(ch.nextCmdAt, exitAt+uint64(ch.cfg.Timing.TXP))
	return nil
}

// EnterSelfRefresh puts the device into self refresh. dividerBits sets the
// refresh-rate divider: effective refresh interval is tREFI << dividerBits
// (0 = JEDEC rate; 4 = the paper's 16x slower idle-mode rate). All banks
// must be precharged.
func (ch *Channel) EnterSelfRefresh(dividerBits int) error {
	if ch.state != StateActiveStandby {
		return fmt.Errorf("%w: self refresh from %v", ErrBadState, ch.state)
	}
	if !ch.AllPrecharged() {
		return fmt.Errorf("%w: self refresh with open rows", ErrBadState)
	}
	if dividerBits < 0 || dividerBits > 8 {
		return fmt.Errorf("%w: dividerBits=%d", ErrBadConfig, dividerBits)
	}
	ch.state = StateSelfRefresh
	ch.dividerBits = dividerBits
	ch.stats.SRDividerBits = dividerBits
	ch.srEnteredAt = ch.now
	if ch.obs.Tracing(obs.KindRefreshRate) {
		ch.obs.Emit(obs.Event{T: ch.now, Kind: obs.KindRefreshRate, Shift: dividerBits})
	}
	return nil
}

// ExitSelfRefresh wakes the device; commands stall for tXSR.
func (ch *Channel) ExitSelfRefresh() error {
	if ch.state != StateSelfRefresh {
		return fmt.Errorf("%w: self-refresh exit from %v", ErrBadState, ch.state)
	}
	ch.state = StateActiveStandby
	ch.nextCmdAt = maxU64(ch.nextCmdAt, ch.now+uint64(ch.cfg.Timing.TXSR))
	return nil
}

// EnterPASR enters partial-array self refresh: only `retained` of the
// array (one of 1/2, 1/4, 1/8, 1/16) keeps being refreshed; the rest
// loses its contents (Section II-A). All banks must be precharged.
func (ch *Channel) EnterPASR(retained float64) error {
	if ch.state != StateActiveStandby {
		return fmt.Errorf("%w: PASR from %v", ErrBadState, ch.state)
	}
	if !ch.AllPrecharged() {
		return fmt.Errorf("%w: PASR with open rows", ErrBadState)
	}
	switch retained {
	case 0.5, 0.25, 0.125, 0.0625:
	default:
		return fmt.Errorf("%w: PASR retained fraction %v", ErrBadConfig, retained)
	}
	ch.state = StatePASR
	ch.pasrRetained = retained
	ch.dividerBits = 0
	ch.stats.PASRRetained = retained
	ch.contentsLost = maxF64(ch.contentsLost, 1-retained)
	return nil
}

// ExitPASR wakes the device from PASR; commands stall for tXSR. The
// non-retained portion of the array has lost its contents (see
// ContentsLost).
func (ch *Channel) ExitPASR() error {
	if ch.state != StatePASR {
		return fmt.Errorf("%w: PASR exit from %v", ErrBadState, ch.state)
	}
	ch.state = StateActiveStandby
	ch.nextCmdAt = maxU64(ch.nextCmdAt, ch.now+uint64(ch.cfg.Timing.TXSR))
	return nil
}

// PASRRetained returns the retained fraction while in PASR.
func (ch *Channel) PASRRetained() float64 { return ch.pasrRetained }

// EnterDeepPowerDown cuts power entirely: nothing is refreshed and the
// whole array's contents are lost.
func (ch *Channel) EnterDeepPowerDown() error {
	if ch.state != StateActiveStandby {
		return fmt.Errorf("%w: DPD from %v", ErrBadState, ch.state)
	}
	if !ch.AllPrecharged() {
		return fmt.Errorf("%w: DPD with open rows", ErrBadState)
	}
	ch.state = StateDeepPowerDown
	ch.contentsLost = 1
	return nil
}

// ExitDeepPowerDown re-powers the device; the array must be
// re-initialized by the system before use (ContentsLost reports 1).
func (ch *Channel) ExitDeepPowerDown() error {
	if ch.state != StateDeepPowerDown {
		return fmt.Errorf("%w: DPD exit from %v", ErrBadState, ch.state)
	}
	ch.state = StateActiveStandby
	// DPD exit requires full re-initialization; model the stall as tXSR.
	ch.nextCmdAt = maxU64(ch.nextCmdAt, ch.now+uint64(ch.cfg.Timing.TXSR))
	return nil
}

// ContentsLost returns the fraction of the array whose contents were
// lost by PASR/DPD residency since the last AcknowledgeLoss.
func (ch *Channel) ContentsLost() float64 { return ch.contentsLost }

// AcknowledgeLoss clears the contents-lost latch after the system has
// re-initialized the affected region.
func (ch *Channel) AcknowledgeLoss() { ch.contentsLost = 0 }

// NoteRowHit records row-buffer hit/miss classification (kept by the
// controller at request grain, stored here so power and locality stats
// travel together).
func (ch *Channel) NoteRowHit(hit bool) {
	if hit {
		ch.stats.RowHits++
	} else {
		ch.stats.RowMisses++
	}
}

// errFor picks the most informative sentinel for a rejected command.
func errFor(ch *Channel, bank int) error {
	if ch.state != StateActiveStandby {
		return ErrBadState
	}
	_ = bank
	return ErrTimingViolation
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func maxF64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
