// Package memdata is the functional (data-storing) memory model: it
// holds real line contents and their 64-bit spare fields, encodes and
// decodes through the actual morphable codec of internal/ecc, takes its
// per-line mode decisions from the MECC controller of internal/core, and
// lets retention faults be injected while the memory self-refreshes
// slowly in idle mode. Where internal/sim answers "how fast/expensive"
// with a latency model, memdata answers "is the data actually intact" —
// the end-to-end integration the integrity experiments and examples use.
package memdata

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/line"
	"repro/internal/retention"
)

// Errors returned by the memory.
var (
	ErrBadAddress = errors.New("memdata: address out of range")
	// ErrDataLoss is returned by Read when a line decodes as
	// uncorrectable — the condition the Table I provisioning makes
	// astronomically rare at the paper's BER.
	ErrDataLoss = errors.New("memdata: uncorrectable line")
)

// Stats counts functional-memory events.
type Stats struct {
	// Reads and Writes count accesses.
	Reads, Writes uint64
	// CorrectedBits totals repaired bit errors across all decodes.
	CorrectedBits uint64
	// Uncorrectable counts reads that hit ErrDataLoss.
	Uncorrectable uint64
	// TriedBoth counts mode-bit ties resolved by trial decode.
	TriedBoth uint64
	// UpgradedLines and DowngradedLines count re-encodings.
	UpgradedLines, DowngradedLines uint64
	// InjectedErrors counts retention faults planted by IdleFor.
	InjectedErrors uint64
}

// sweepShardStats is one worker's slice of the sweep counters, padded
// out to a cache line so shards never contend on the same line while
// counting. Totals are folded into Stats in shard-index order after the
// join, so they are bit-identical for any worker count.
type sweepShardStats struct {
	upgraded      uint64
	uncorrectable uint64
	_             [6]uint64 // pad to 64 bytes
}

// Memory is a functional MECC memory. Not safe for concurrent use.
type Memory struct {
	codec *ecc.Morphable
	ctl   *core.Controller
	model *retention.Model

	data   []line.Line
	spare  []uint64
	inited []bool

	// Sweep machinery, all persistent so a steady-state EnterIdle runs
	// without heap allocations: the worker pool, the weak-line address
	// buffer (regrown at most O(log n) times over the memory's life),
	// the per-shard counters, and the shard closure built once at
	// construction. sweepWeak carries the current sweep's address slice
	// to the closure; it is only set while EnterIdle runs.
	pool       *batch.Pool
	weakBuf    []uint64
	sweepWeak  []uint64
	sweepStats []sweepShardStats
	sweepFn    func(worker, lo, hi int)

	seed  int64
	epoch int64
	stats Stats
}

// New builds a functional memory of totalLines cache lines with the
// given MECC configuration (TotalLines is overridden) and the paper's
// default codec pair. Lines start zeroed in strong mode, memory idle —
// call ExitIdle before accessing.
func New(totalLines uint64, meccCfg core.Config, seed int64) (*Memory, error) {
	codec, err := ecc.NewDefaultMorphable()
	if err != nil {
		return nil, err
	}
	return NewWithCodec(totalLines, meccCfg, codec, seed)
}

// NewWithCodec builds a functional memory over an arbitrary morphable
// codec pair (e.g. a no-protection weak code, for the weak-code
// ablation).
func NewWithCodec(totalLines uint64, meccCfg core.Config, codec *ecc.Morphable, seed int64) (*Memory, error) {
	if totalLines == 0 {
		return nil, fmt.Errorf("%w: zero lines", core.ErrBadConfig)
	}
	meccCfg.TotalLines = totalLines
	ctl, err := core.New(meccCfg)
	if err != nil {
		return nil, err
	}
	m := &Memory{
		codec:  codec,
		ctl:    ctl,
		model:  retention.DefaultModel(),
		data:   make([]line.Line, totalLines),
		spare:  make([]uint64, totalLines),
		inited: make([]bool, totalLines),
		seed:   seed,
	}
	m.setPool(batch.Default())
	m.sweepFn = m.sweepShard
	// Boot state: everything encoded strong (all-zero data).
	zeroSpare := codec.Encode(line.Line{}, ecc.ModeStrong)
	for i := range m.spare {
		m.spare[i] = zeroSpare
	}
	return m, nil
}

// Controller exposes the underlying MECC controller (mode table, MDT,
// SMD state) for inspection.
func (m *Memory) Controller() *core.Controller { return m.ctl }

// Stats returns a copy of the counters.
func (m *Memory) Stats() Stats { return m.stats }

func (m *Memory) checkAddr(addr uint64) error {
	if addr >= uint64(len(m.data)) {
		return fmt.Errorf("%w: %d", ErrBadAddress, addr)
	}
	return nil
}

// Write stores a line in active mode. Per the MECC write path, data is
// re-encoded in weak ECC when downgrades are enabled, otherwise in the
// line's current mode.
func (m *Memory) Write(addr uint64, data line.Line, nowCPU uint64) error {
	if err := m.checkAddr(addr); err != nil {
		return err
	}
	if err := m.ctl.OnWrite(addr, nowCPU); err != nil {
		return err
	}
	mode := ecc.ModeWeak
	if m.ctl.IsStrong(addr) {
		mode = ecc.ModeStrong
	}
	m.data[addr] = data
	m.spare[addr] = m.codec.Encode(data, mode)
	m.inited[addr] = true
	m.stats.Writes++
	return nil
}

// Read fetches and decodes a line in active mode, applying the MECC
// demand-downgrade policy: a line found in strong mode is re-encoded
// weak and written back (when downgrades are enabled). The returned
// line is the corrected data.
func (m *Memory) Read(addr uint64, nowCPU uint64) (line.Line, error) {
	if err := m.checkAddr(addr); err != nil {
		return line.Line{}, err
	}
	out, err := m.ctl.OnRead(addr, nowCPU)
	if err != nil {
		return line.Line{}, err
	}
	fixed, ev := m.codec.Decode(m.data[addr], m.spare[addr])
	m.stats.Reads++
	m.stats.CorrectedBits += uint64(ev.Result.CorrectedBits)
	if ev.TriedBoth {
		m.stats.TriedBoth++
	}
	if ev.Result.Uncorrectable {
		m.stats.Uncorrectable++
		return line.Line{}, fmt.Errorf("%w: address %d", ErrDataLoss, addr)
	}
	if ev.Result.CorrectedBits > 0 || out.Downgrade {
		// Scrub on correction; re-encode per the controller's decision.
		mode := ecc.ModeStrong
		if out.Downgrade || !m.ctl.IsStrong(addr) {
			mode = ecc.ModeWeak
		}
		m.data[addr] = fixed
		m.spare[addr] = m.codec.Encode(fixed, mode)
		if out.Downgrade {
			m.stats.DowngradedLines++
		}
	}
	return fixed, nil
}

// minSweepPerWorker is the smallest shard worth shipping to a sweep
// worker: a screened upgrade is a few hundred nanoseconds per line, so
// 256 lines keep the fork-join overhead well under 1%.
const minSweepPerWorker = 256

// setPool installs the sweep worker pool and sizes the per-shard
// counters to match.
func (m *Memory) setPool(p *batch.Pool) {
	m.pool = p
	m.sweepStats = make([]sweepShardStats, p.Workers())
}

// SetSweepPool replaces the worker pool behind the upgrade sweep (the
// process-wide batch.Default() unless overridden). Tests use it to pin
// the worker count when checking that sweep results are bit-identical
// for any sharding. The memory does not own the pool; Close it (if not
// the default) when done.
func (m *Memory) SetSweepPool(p *batch.Pool) { m.setPool(p) }

// sweepShard upgrades the weak lines m.sweepWeak[lo:hi] in place. It is
// the persistent shard body run by the pool workers: shards touch
// disjoint addresses and count into their own padded stats slot, so the
// loop is data-race-free and needs no locks. Per-line work is the fast
// screen (word-sliced weak re-encode) plus a strong table encode; only
// lines whose screen fails — retention victims — pay the scalar
// morphable decode.
func (m *Memory) sweepShard(worker, lo, hi int) {
	st := &m.sweepStats[worker]
	for _, addr := range m.sweepWeak[lo:hi] {
		data := m.data[addr]
		spare := m.spare[addr]
		if m.codec.ScreenWeakClean(data, spare) {
			m.spare[addr] = m.codec.Encode(data, ecc.ModeStrong)
			st.upgraded++
			continue
		}
		fixed, ev := m.codec.Decode(data, spare)
		if ev.Result.Uncorrectable {
			st.uncorrectable++
			continue
		}
		m.data[addr] = fixed
		m.spare[addr] = m.codec.Encode(fixed, ecc.ModeStrong)
		st.upgraded++
	}
}

// EnterIdle performs the real ECC-Upgrade sweep: every line the
// controller upgrades is re-encoded with the strong code, after either
// passing the weak-clean screen or (rarely) a full corrective decode.
// The weak-line list is sharded across the persistent worker pool; the
// address buffer, shard counters and shard closure are all reused across
// quanta, so a steady-state sweep performs no heap allocations — the
// software analogue of the paper's 640 M-cycle background sweep being
// bandwidth-, not latency-, bound. Results are bit-identical for any
// worker count: lines are independent and the per-shard counters are
// folded in shard order. It returns the controller's transition summary.
func (m *Memory) EnterIdle(nowCPU uint64) (core.IdleTransition, error) {
	// Snapshot which lines are weak (word-at-a-time over the mode bitset)
	// before the controller flips them.
	m.weakBuf = m.ctl.AppendWeakLines(m.weakBuf[:0])
	tr, err := m.ctl.EnterIdle(nowCPU)
	if err != nil {
		return tr, err
	}
	for i := range m.sweepStats {
		m.sweepStats[i] = sweepShardStats{}
	}
	m.sweepWeak = m.weakBuf
	m.pool.Run(len(m.sweepWeak), minSweepPerWorker, m.sweepFn)
	m.sweepWeak = nil
	for i := range m.sweepStats {
		m.stats.UpgradedLines += m.sweepStats[i].upgraded
		m.stats.Uncorrectable += m.sweepStats[i].uncorrectable
	}
	return tr, nil
}

// ExitIdle wakes the memory into active mode.
func (m *Memory) ExitIdle(nowCPU uint64) error { return m.ctl.ExitIdle(nowCPU) }

// IdleFor models an idle period at the given self-refresh period:
// retention faults strike every stored bit (data and spare alike) with
// the model's BER for that period. Only initialized lines are touched —
// uninitialized ones hold the pre-encoded zero pattern and are skipped
// to keep large memories cheap.
func (m *Memory) IdleFor(duration time.Duration, refreshPeriod time.Duration) error {
	if m.ctl.Phase() != core.PhaseIdle {
		return fmt.Errorf("%w: IdleFor in %v", core.ErrBadPhase, m.ctl.Phase())
	}
	ber := m.model.BER(refreshPeriod)
	if ber <= 0 {
		return nil
	}
	// Deterministic per-epoch injector.
	m.epoch++
	inj := retention.NewInjector(m.seed^m.epoch<<16, ber)
	_ = duration    // the paper's model: failures depend on period, not dwell
	var flips []int // reused per line: no allocation when a line survives
	for addr := range m.data {
		if !m.inited[addr] {
			continue
		}
		flips = inj.FlipPositionsAppend(line.Bits+ecc.SpareBits, flips[:0])
		for _, pos := range flips {
			m.stats.InjectedErrors++
			if pos < line.Bits {
				m.data[addr] = m.data[addr].FlipBit(pos)
			} else {
				m.spare[addr] ^= uint64(1) << (pos - line.Bits)
			}
		}
	}
	return nil
}

// InjectBitFlip flips one stored data bit of a line — a soft-error
// (alpha strike) event for the fault-injection experiments. Bits beyond
// the data width land in the spare field.
func (m *Memory) InjectBitFlip(addr uint64, bit int) {
	if addr >= uint64(len(m.data)) {
		return
	}
	if bit < line.Bits {
		m.data[addr] = m.data[addr].FlipBit(bit)
	} else {
		m.spare[addr] ^= uint64(1) << ((bit - line.Bits) % ecc.SpareBits)
	}
	m.stats.InjectedErrors++
}
