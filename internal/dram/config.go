// Package dram models an LPDDR DRAM channel at cycle granularity in the
// style of USIMM: banks with open rows, JEDEC timing constraints, the
// shared data bus, auto/self refresh, power-down states, and the
// refresh-rate divider counter MECC adds for slow self-refresh (paper
// Sections II-A and III-B). The package tracks command and state-residency
// statistics that the power model converts to energy.
package dram

import (
	"errors"
	"fmt"
	"math/bits"
	"time"
)

// ErrBadConfig reports an invalid geometry or timing configuration.
var ErrBadConfig = errors.New("dram: invalid configuration")

// Timing holds the JEDEC-style timing constraints, in DRAM clock cycles.
// The defaults model the paper's 200 MHz LPDDR part (tCK = 5 ns).
type Timing struct {
	// CL is the CAS (read) latency.
	CL int
	// CWL is the write latency.
	CWL int
	// TRCD is ACT-to-RD/WR delay.
	TRCD int
	// TRP is PRE-to-ACT delay.
	TRP int
	// TRAS is ACT-to-PRE minimum.
	TRAS int
	// TRC is ACT-to-ACT (same bank) minimum.
	TRC int
	// TRRD is ACT-to-ACT (different banks) minimum.
	TRRD int
	// TCCD is RD-to-RD / WR-to-WR minimum (column-to-column).
	TCCD int
	// TWR is write recovery: end of write data to PRE.
	TWR int
	// TWTR is end of write data to RD.
	TWTR int
	// TRTP is RD-to-PRE delay.
	TRTP int
	// TFAW is the rolling window that may contain at most four ACTs.
	TFAW int
	// TRFC is the refresh cycle time (REF to next command).
	TRFC int
	// TRFCpb is the per-bank refresh cycle time (LPDDR REFpb): shorter
	// than TRFC, and it blocks only the refreshed bank.
	TRFCpb int
	// TREFI is the average refresh interval (distributed refresh).
	TREFI int
	// TXP is the power-down exit latency.
	TXP int
	// TCKE is the minimum power-down residency.
	TCKE int
	// TXSR is the self-refresh exit latency.
	TXSR int
	// TRTRS is the rank-to-rank bus turnaround: the gap between data
	// bursts from different ranks sharing the bus.
	TRTRS int
	// BL is the data-burst occupancy of one line transfer in clock
	// cycles (a 64 B line on a 64-bit DDR bus is 8 beats = 4 cycles).
	BL int
}

// DefaultTiming returns timing for the paper's 200 MHz mobile LPDDR.
func DefaultTiming() Timing {
	return Timing{
		CL:     3,
		CWL:    1,
		TRCD:   3,
		TRP:    3,
		TRAS:   8,
		TRC:    11,
		TRRD:   2,
		TCCD:   4,
		TWR:    3,
		TWTR:   2,
		TRTP:   2,
		TFAW:   10,
		TRFC:   14,
		TRFCpb: 8,
		TREFI:  1560, // 7.8 us at 5 ns/cycle
		TXP:    2,
		TCKE:   2,
		TXSR:   25,
		TRTRS:  2,
		BL:     4,
	}
}

// AddressMapping selects how line addresses spread over banks and rows.
type AddressMapping int

// Address mappings.
const (
	// MapRowBankCol: consecutive lines fill a row, then rotate across
	// banks (open-page friendly; the default).
	MapRowBankCol AddressMapping = iota + 1
	// MapBankRowCol: consecutive row-sized chunks stay in one bank
	// until it is full (maximizes per-bank locality, minimizes bank
	// parallelism — the straw man for the mapping ablation).
	MapBankRowCol
	// MapRowXORBankCol: like MapRowBankCol but the bank index is XORed
	// with low row bits (permutation-based interleaving, which breaks
	// pathological bank-conflict strides).
	MapRowXORBankCol
)

// String renders the mapping name.
func (m AddressMapping) String() string {
	switch m {
	case MapRowBankCol:
		return "row:bank:col"
	case MapBankRowCol:
		return "bank:row:col"
	case MapRowXORBankCol:
		return "row:bank^row:col"
	default:
		return fmt.Sprintf("AddressMapping(%d)", int(m))
	}
}

// Config describes one DRAM channel: geometry, clocking and timing.
type Config struct {
	// Ranks is the number of ranks sharing the channel (paper: 1; the
	// "next-generation 4 GB" devices the paper anticipates need more).
	// Zero means 1.
	Ranks int
	// Banks is the number of banks per rank (paper: 4).
	Banks int
	// RowsPerBank is the number of rows in each bank.
	RowsPerBank int
	// RowBytes is the row-buffer size in bytes.
	RowBytes int
	// LineBytes is the transfer granularity (cache-line size).
	LineBytes int
	// ClockHz is the DRAM command clock (paper: 200 MHz).
	ClockHz int64
	// CPUClockHz is the processor clock, used to express read latency in
	// CPU cycles (paper: 1.6 GHz).
	CPUClockHz int64
	// Timing is the constraint set.
	Timing Timing
	// Mapping is the address-interleaving policy (zero value =
	// MapRowBankCol).
	Mapping AddressMapping
}

// DefaultConfig returns the paper's memory system: 1 GB LPDDR, 200 MHz,
// one channel, one rank, 4 banks. The paper's "16K rows and 1K columns"
// does not multiply out to 1 GB, so we keep the 1 GB capacity with an
// 8 KB row buffer and 32K rows per bank (see DESIGN.md).
func DefaultConfig() Config {
	return Config{
		Banks:       4,
		RowsPerBank: 32768,
		RowBytes:    8192,
		LineBytes:   64,
		ClockHz:     200_000_000,
		CPUClockHz:  1_600_000_000,
		Timing:      DefaultTiming(),
	}
}

// RankCount returns the number of ranks (zero-value Config = 1).
func (c Config) RankCount() int {
	if c.Ranks <= 0 {
		return 1
	}
	return c.Ranks
}

// TotalBanks returns banks across all ranks; bank ids in the command
// interface are global (rank*Banks + bankInRank).
func (c Config) TotalBanks() int { return c.RankCount() * c.Banks }

// RankOfBank returns the rank that owns a global bank id.
func (c Config) RankOfBank(bank int) int { return bank / c.Banks }

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.Ranks < 0 || (c.Ranks > 0 && c.Ranks&(c.Ranks-1) != 0):
		return fmt.Errorf("%w: ranks=%d must be a power of two", ErrBadConfig, c.Ranks)
	case c.Banks <= 0 || c.Banks&(c.Banks-1) != 0:
		return fmt.Errorf("%w: banks=%d must be a power of two", ErrBadConfig, c.Banks)
	case c.RowsPerBank <= 0 || c.RowsPerBank&(c.RowsPerBank-1) != 0:
		return fmt.Errorf("%w: rows=%d must be a power of two", ErrBadConfig, c.RowsPerBank)
	case c.RowBytes <= 0 || c.RowBytes&(c.RowBytes-1) != 0:
		return fmt.Errorf("%w: rowBytes=%d must be a power of two", ErrBadConfig, c.RowBytes)
	case c.LineBytes <= 0 || c.RowBytes%c.LineBytes != 0:
		return fmt.Errorf("%w: lineBytes=%d must divide rowBytes=%d", ErrBadConfig, c.LineBytes, c.RowBytes)
	case c.ClockHz <= 0 || c.CPUClockHz < c.ClockHz:
		return fmt.Errorf("%w: clocks %d/%d", ErrBadConfig, c.ClockHz, c.CPUClockHz)
	case c.Timing.BL <= 0 || c.Timing.CL <= 0:
		return fmt.Errorf("%w: timing", ErrBadConfig)
	}
	return nil
}

// CapacityBytes returns the channel capacity across all ranks.
func (c Config) CapacityBytes() uint64 {
	return uint64(c.TotalBanks()) * uint64(c.RowsPerBank) * uint64(c.RowBytes)
}

// TotalLines returns the number of cache lines in the channel.
func (c Config) TotalLines() uint64 {
	return c.CapacityBytes() / uint64(c.LineBytes)
}

// LinesPerRow returns the number of cache lines per row buffer.
func (c Config) LinesPerRow() int {
	return c.RowBytes / c.LineBytes
}

// CPURatio returns CPU cycles per DRAM cycle (paper: 8).
func (c Config) CPURatio() int {
	return int(c.CPUClockHz / c.ClockHz)
}

// TCK returns the DRAM clock period.
func (c Config) TCK() time.Duration {
	return time.Duration(float64(time.Second) / float64(c.ClockHz))
}

// Coord is a decoded line address. Bank is the GLOBAL bank id
// (rank*Banks + bank-within-rank), which is what the command interface
// takes; Rank is provided for rank-aware policies.
type Coord struct {
	// Rank, Bank, Row and Col locate the line; Col is in line-sized
	// units and Bank is global.
	Rank, Bank, Row, Col int
}

// decodeParams caches the shifts and masks Decode derives from the
// geometry: address decoding runs once per enqueued request, and
// re-deriving them through Config's value-receiver helpers copies the
// whole ~400-byte Config several times per call. Channel precomputes
// one of these at construction.
type decodeParams struct {
	colBits, bankBits, rankBits, rowBits int
	rowsPerBank                          uint64
	// colMask, bankMask, rankMask and globalMask are the index masks of
	// the power-of-two counts, precomputed so the per-request decode
	// does no count-minus-one arithmetic at all.
	colMask, bankMask, rankMask, globalMask uint64
	banksPerRank                            int
	mapping                                 AddressMapping
}

// maskOf returns the index mask n-1 of a power-of-two count, or 0 for
// an empty count rather than wrapping to 2^64-1.
func maskOf(n uint64) uint64 {
	if n >= 1 {
		return n - 1
	}
	return 0
}

func (c *Config) decodeParams() decodeParams {
	return decodeParams{
		colBits:      bits.TrailingZeros64(uint64(c.LinesPerRow())),
		bankBits:     bits.TrailingZeros64(uint64(c.Banks)),
		rankBits:     bits.TrailingZeros64(uint64(c.RankCount())),
		rowBits:      bits.TrailingZeros64(uint64(c.RowsPerBank)),
		rowsPerBank:  uint64(c.RowsPerBank),
		colMask:      maskOf(uint64(c.LinesPerRow())),
		bankMask:     maskOf(uint64(c.Banks)),
		rankMask:     maskOf(uint64(c.RankCount())),
		globalMask:   maskOf(uint64(c.TotalBanks())),
		banksPerRank: c.Banks,
		mapping:      c.Mapping,
	}
}

func (p *decodeParams) decode(lineAddr uint64) Coord {
	col := int(lineAddr & p.colMask)
	switch p.mapping {
	case MapBankRowCol:
		row := int((lineAddr >> p.colBits) % p.rowsPerBank)
		global := int((lineAddr >> (p.colBits + p.rowBits)) & p.globalMask)
		return Coord{Rank: global / p.banksPerRank, Bank: global, Row: row, Col: col}
	case MapRowXORBankCol:
		bank := int((lineAddr >> p.colBits) & p.bankMask)
		rank := int((lineAddr >> (p.colBits + p.bankBits)) & p.rankMask)
		row := int((lineAddr >> (p.colBits + p.bankBits + p.rankBits)) % p.rowsPerBank)
		bank ^= row & (p.banksPerRank - 1)
		return Coord{Rank: rank, Bank: rank*p.banksPerRank + bank, Row: row, Col: col}
	default: // MapRowBankCol
		bank := int((lineAddr >> p.colBits) & p.bankMask)
		rank := int((lineAddr >> (p.colBits + p.bankBits)) & p.rankMask)
		row := int((lineAddr >> (p.colBits + p.bankBits + p.rankBits)) % p.rowsPerBank)
		return Coord{Rank: rank, Bank: rank*p.banksPerRank + bank, Row: row, Col: col}
	}
}

// Decode maps a line address to its rank/bank/row/column per the
// configured address-interleaving policy. Rank bits sit directly above
// the bank bits, so consecutive row-sized chunks rotate through every
// bank of every rank before the row advances. Hot callers should prefer
// Channel.Decode, which runs off precomputed parameters.
func (c Config) Decode(lineAddr uint64) Coord {
	p := c.decodeParams()
	return p.decode(lineAddr)
}
