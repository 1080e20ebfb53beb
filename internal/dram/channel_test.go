package dram

import (
	"errors"
	"math/rand"
	"testing"
)

func newTestChannel(t *testing.T) *Channel {
	t.Helper()
	ch, err := NewChannel(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// tickTo advances the channel to the given cycle.
func tickTo(ch *Channel, cycle uint64) {
	for ch.Now() < cycle {
		ch.Tick()
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.CapacityBytes(); got != 1<<30 {
		t.Errorf("capacity = %d, want 1 GB", got)
	}
	if got := cfg.TotalLines(); got != 1<<24 {
		t.Errorf("lines = %d, want 16M", got)
	}
	if got := cfg.CPURatio(); got != 8 {
		t.Errorf("CPU ratio = %d, want 8", got)
	}
	if got := cfg.TCK().Nanoseconds(); got != 5 {
		t.Errorf("tCK = %dns, want 5", got)
	}
	// tREFI must cover all rows in 64 ms: rows*banks refresh pulses... the
	// distributed-refresh identity: TREFI cycles * 8192 pulses = 64 ms.
	if got := cfg.Timing.TREFI * 8192 * 5; got != 63897600 {
		t.Logf("distributed refresh period = %d ns (≈64 ms)", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Banks = 3 },
		func(c *Config) { c.Banks = 0 },
		func(c *Config) { c.RowsPerBank = 1000 },
		func(c *Config) { c.RowBytes = 100 },
		func(c *Config) { c.LineBytes = 48 },
		func(c *Config) { c.ClockHz = 0 },
		func(c *Config) { c.CPUClockHz = 1 },
		func(c *Config) { c.Timing.BL = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestDecodeMapping(t *testing.T) {
	cfg := DefaultConfig()
	lpr := uint64(cfg.LinesPerRow()) // 128
	// Consecutive lines share a row.
	a, b := cfg.Decode(0), cfg.Decode(1)
	if a.Bank != b.Bank || a.Row != b.Row || b.Col != a.Col+1 {
		t.Errorf("consecutive lines should share a row: %+v %+v", a, b)
	}
	// Next row-sized chunk goes to the next bank.
	c := cfg.Decode(lpr)
	if c.Bank != 1 || c.Row != 0 || c.Col != 0 {
		t.Errorf("line %d decoded to %+v, want bank 1 row 0", lpr, c)
	}
	// After all banks, the row advances.
	d := cfg.Decode(lpr * uint64(cfg.Banks))
	if d.Bank != 0 || d.Row != 1 {
		t.Errorf("decoded %+v, want bank 0 row 1", d)
	}
	// Decode stays in range over the whole address space.
	for _, addr := range []uint64{0, 12345, cfg.TotalLines() - 1} {
		co := cfg.Decode(addr)
		if co.Bank < 0 || co.Bank >= cfg.Banks || co.Row < 0 || co.Row >= cfg.RowsPerBank ||
			co.Col < 0 || co.Col >= cfg.LinesPerRow() {
			t.Errorf("Decode(%d) out of range: %+v", addr, co)
		}
	}
}

func TestActivateReadPrechargeSequence(t *testing.T) {
	ch := newTestChannel(t)
	tm := ch.Config().Timing

	if ch.CanRD(0, 5) {
		t.Fatal("RD legal with no open row")
	}
	if err := ch.ACT(0, 5); err != nil {
		t.Fatal(err)
	}
	if ch.CanRD(0, 5) {
		t.Fatal("RD legal before tRCD")
	}
	tickTo(ch, uint64(tm.TRCD))
	if !ch.CanRD(0, 5) {
		t.Fatal("RD should be legal at tRCD")
	}
	if ch.CanRD(0, 6) {
		t.Fatal("RD legal to the wrong row")
	}
	done, err := ch.RD(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := ch.Now() + uint64(tm.CL) + uint64(tm.BL); done != want {
		t.Errorf("read data end = %d, want %d", done, want)
	}
	// tRAS gates precharge.
	if ch.CanPRE(0) {
		t.Fatal("PRE legal before tRAS")
	}
	tickTo(ch, uint64(tm.TRAS))
	if !ch.CanPRE(0) {
		t.Fatal("PRE should be legal at tRAS")
	}
	if err := ch.PRE(0); err != nil {
		t.Fatal(err)
	}
	// tRP gates re-activation.
	if ch.CanACT(0) {
		t.Fatal("ACT legal before tRP")
	}
	tickTo(ch, ch.Now()+uint64(tm.TRP))
	if !ch.CanACT(0) {
		t.Fatal("ACT should be legal after tRP")
	}
}

func TestSameBankACTRespectsTRC(t *testing.T) {
	ch := newTestChannel(t)
	tm := ch.Config().Timing
	if err := ch.ACT(0, 1); err != nil {
		t.Fatal(err)
	}
	tickTo(ch, uint64(tm.TRAS))
	if err := ch.PRE(0); err != nil {
		t.Fatal(err)
	}
	// tRP is satisfied at TRAS+TRP < TRC? TRAS=8, TRP=3 -> 11 == TRC.
	tickTo(ch, uint64(tm.TRC)-1)
	if ch.CanACT(0) {
		t.Fatal("ACT legal before tRC")
	}
	tickTo(ch, uint64(tm.TRC))
	if !ch.CanACT(0) {
		t.Fatal("ACT should be legal at tRC")
	}
}

func TestTRRDAcrossBanks(t *testing.T) {
	ch := newTestChannel(t)
	tm := ch.Config().Timing
	if err := ch.ACT(0, 1); err != nil {
		t.Fatal(err)
	}
	if ch.CanACT(1) {
		t.Fatal("ACT to bank 1 legal immediately (tRRD)")
	}
	tickTo(ch, uint64(tm.TRRD))
	if !ch.CanACT(1) {
		t.Fatal("ACT to bank 1 should be legal at tRRD")
	}
}

func TestTFAWLimitsActivates(t *testing.T) {
	ch := newTestChannel(t)
	tm := ch.Config().Timing
	// Issue 4 ACTs as fast as tRRD allows: cycles 0, 2, 4, 6.
	for i := 0; i < 4; i++ {
		tickTo(ch, uint64(i*tm.TRRD))
		if err := ch.ACT(i, 0); err != nil {
			t.Fatalf("ACT %d: %v", i, err)
		}
		// Close it so the 5th ACT is bank-legal later.
	}
	// 5th ACT (to bank 0 again after tRC would be 11 > tFAW) — use the
	// rank constraint directly: at cycle 8 tRRD is fine, but tFAW (10,
	// window from cycle 0) must block until cycle 10.
	tickTo(ch, 8)
	// Need a precharged bank whose own timers allow ACT; bank 0 is gated
	// by tRC=11 anyway, so check fawOK via CanACT on a fresh bank: all 4
	// banks have open rows, so instead verify tFAW directly.
	if ch.fawOK(&ch.ranks[0]) {
		t.Fatal("fawOK at cycle 8 with 4 ACTs since cycle 0 (tFAW=10)")
	}
	tickTo(ch, uint64(tm.TFAW))
	if !ch.fawOK(&ch.ranks[0]) {
		t.Fatal("fawOK should clear at tFAW")
	}
}

func TestWriteReadTurnaround(t *testing.T) {
	ch := newTestChannel(t)
	tm := ch.Config().Timing
	if err := ch.ACT(0, 3); err != nil {
		t.Fatal(err)
	}
	tickTo(ch, uint64(tm.TRCD))
	dataEnd, err := ch.WR(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Reads must wait for write data end + tWTR.
	tickTo(ch, dataEnd)
	if ch.CanRD(0, 3) {
		t.Fatal("RD legal during tWTR")
	}
	tickTo(ch, dataEnd+uint64(tm.TWTR))
	if !ch.CanRD(0, 3) {
		t.Fatal("RD should be legal after tWTR")
	}
	// Precharge must respect tWR after write data.
	// nextPRE = dataEnd + tWR; we are at dataEnd + tWTR (2) < +tWR (3).
	if ch.CanPRE(0) {
		t.Fatal("PRE legal before tWR")
	}
	tickTo(ch, dataEnd+uint64(tm.TWR))
	if !ch.CanPRE(0) {
		t.Fatal("PRE should be legal after tWR")
	}
}

func TestColumnToColumnTCCD(t *testing.T) {
	ch := newTestChannel(t)
	tm := ch.Config().Timing
	if err := ch.ACT(0, 3); err != nil {
		t.Fatal(err)
	}
	tickTo(ch, uint64(tm.TRCD))
	if _, err := ch.RD(0, 3); err != nil {
		t.Fatal(err)
	}
	if ch.CanRD(0, 3) {
		t.Fatal("back-to-back RD legal within tCCD")
	}
	tickTo(ch, ch.Now()+uint64(tm.TCCD))
	if !ch.CanRD(0, 3) {
		t.Fatal("RD should be legal after tCCD")
	}
}

func TestRefreshRequiresPrechargedAndBlocks(t *testing.T) {
	ch := newTestChannel(t)
	tm := ch.Config().Timing
	if err := ch.ACT(0, 1); err != nil {
		t.Fatal(err)
	}
	if ch.CanREF() {
		t.Fatal("REF legal with open row")
	}
	tickTo(ch, uint64(tm.TRAS))
	if err := ch.PRE(0); err != nil {
		t.Fatal(err)
	}
	tickTo(ch, ch.Now()+uint64(tm.TRP))
	if !ch.CanREF() {
		t.Fatal("REF should be legal with all banks precharged")
	}
	if err := ch.REF(); err != nil {
		t.Fatal(err)
	}
	if ch.CanACT(1) {
		t.Fatal("ACT legal during tRFC")
	}
	tickTo(ch, ch.Now()+uint64(tm.TRFC))
	if !ch.CanACT(1) {
		t.Fatal("ACT should be legal after tRFC")
	}
	if got := ch.Stats().NREF; got != 1 {
		t.Errorf("NREF = %d", got)
	}
}

func TestPowerDownBlocksCommands(t *testing.T) {
	ch := newTestChannel(t)
	if err := ch.EnterPowerDown(); err != nil {
		t.Fatal(err)
	}
	if ch.State() != StatePrechargePD {
		t.Fatalf("state = %v", ch.State())
	}
	if ch.CanACT(0) {
		t.Fatal("ACT legal in power-down")
	}
	if err := ch.EnterPowerDown(); err == nil {
		t.Fatal("double power-down entry should error")
	}
	tickTo(ch, 10)
	if err := ch.ExitPowerDown(); err != nil {
		t.Fatal(err)
	}
	if ch.CanACT(0) {
		t.Fatal("ACT legal during tXP")
	}
	tickTo(ch, ch.Now()+uint64(ch.Config().Timing.TXP))
	if !ch.CanACT(0) {
		t.Fatal("ACT should be legal after tXP")
	}
}

func TestActivePowerDownState(t *testing.T) {
	ch := newTestChannel(t)
	if err := ch.ACT(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := ch.EnterPowerDown(); err != nil {
		t.Fatal(err)
	}
	if ch.State() != StateActivePD {
		t.Fatalf("state = %v, want active power-down with open row", ch.State())
	}
	if err := ch.ExitPowerDown(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfRefreshLifecycle(t *testing.T) {
	ch := newTestChannel(t)
	tm := ch.Config().Timing
	// Open row blocks SR entry.
	if err := ch.ACT(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := ch.EnterSelfRefresh(4); err == nil {
		t.Fatal("SR entry with open row should error")
	}
	tickTo(ch, uint64(tm.TRAS))
	if err := ch.PRE(0); err != nil {
		t.Fatal(err)
	}
	if err := ch.EnterSelfRefresh(9); err == nil {
		t.Fatal("divider 9 should be rejected")
	}
	if err := ch.EnterSelfRefresh(4); err != nil {
		t.Fatal(err)
	}
	if ch.State() != StateSelfRefresh {
		t.Fatalf("state = %v", ch.State())
	}
	// Divided refresh: 16x fewer pulses.
	start := ch.Now()
	ch.AdvanceTo(start + uint64(tm.TREFI)*16*10)
	if got := ch.Stats().NSelfRefreshPulses; got != 10 {
		t.Errorf("SR pulses with divider 4 = %d, want 10", got)
	}
	if err := ch.ExitSelfRefresh(); err != nil {
		t.Fatal(err)
	}
	if ch.CanACT(0) {
		t.Fatal("ACT legal during tXSR")
	}
	tickTo(ch, ch.Now()+uint64(tm.TXSR))
	if !ch.CanACT(0) {
		t.Fatal("ACT should be legal after tXSR")
	}
	if err := ch.ExitSelfRefresh(); err == nil {
		t.Fatal("double SR exit should error")
	}
}

// TestStateResidencyAccounting drives each power state through each of
// the three ways time advances: the span must land in that state's
// residency counter, and residency must sum to the channel's clock.
// SkipTo is legal only in the externally-refreshed states.
func TestStateResidencyAccounting(t *testing.T) {
	const lead, span = 50, 1000
	states := []struct {
		state  PowerState
		enter  func(*Channel) error
		cycles func(Stats) uint64
	}{
		{StateActiveStandby, func(*Channel) error { return nil },
			func(s Stats) uint64 { return s.CyclesActiveStandby }},
		{StatePrechargePD, (*Channel).EnterPowerDown,
			func(s Stats) uint64 { return s.CyclesPrechargePD }},
		{StateActivePD, func(ch *Channel) error {
			if err := ch.ACT(0, 1); err != nil {
				return err
			}
			return ch.EnterPowerDown()
		}, func(s Stats) uint64 { return s.CyclesActivePD }},
		{StateSelfRefresh, func(ch *Channel) error { return ch.EnterSelfRefresh(4) },
			func(s Stats) uint64 { return s.CyclesSelfRefresh }},
	}
	advances := []struct {
		name string
		to   func(ch *Channel, cycle uint64) error
	}{
		{"Tick", func(ch *Channel, cycle uint64) error { tickTo(ch, cycle); return nil }},
		{"AdvanceTo", func(ch *Channel, cycle uint64) error { ch.AdvanceTo(cycle); return nil }},
		{"SkipTo", (*Channel).SkipTo},
	}
	for _, st := range states {
		for _, adv := range advances {
			t.Run(st.state.String()+"/"+adv.name, func(t *testing.T) {
				ch := newTestChannel(t)
				tickTo(ch, lead)
				if err := st.enter(ch); err != nil {
					t.Fatal(err)
				}
				if ch.State() != st.state {
					t.Fatalf("state = %v, want %v", ch.State(), st.state)
				}
				before := st.cycles(ch.Stats())
				err := adv.to(ch, lead+span)
				want := uint64(span)
				if st.state == StateSelfRefresh && adv.name == "SkipTo" {
					if !errors.Is(err, ErrBadState) {
						t.Fatalf("SkipTo in self refresh: err = %v, want ErrBadState", err)
					}
					want = 0
				} else if err != nil {
					t.Fatal(err)
				}
				s := ch.Stats()
				if got := st.cycles(s) - before; got != want {
					t.Errorf("residency grew by %d, want %d", got, want)
				}
				if got := s.TotalCycles(); got != ch.Now() {
					t.Errorf("TotalCycles = %d, Now = %d", got, ch.Now())
				}
			})
		}
	}
}

func TestIssueErrorsWhenIllegal(t *testing.T) {
	ch := newTestChannel(t)
	if _, err := ch.RD(0, 0); err == nil {
		t.Error("RD with closed row: want error")
	}
	if _, err := ch.WR(0, 0); err == nil {
		t.Error("WR with closed row: want error")
	}
	if err := ch.PRE(0); err == nil {
		t.Error("PRE with closed row: want error")
	}
	if err := ch.ACT(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := ch.ACT(0, 2); err == nil {
		t.Error("ACT on open bank: want error")
	}
	if err := ch.REF(); err == nil {
		t.Error("REF with open row: want error")
	}
}

func TestRowHitTracking(t *testing.T) {
	ch := newTestChannel(t)
	ch.NoteRowHit(true)
	ch.NoteRowHit(true)
	ch.NoteRowHit(false)
	s := ch.Stats()
	if s.RowHits != 2 || s.RowMisses != 1 {
		t.Errorf("row stats %+v", s)
	}
}

func TestPowerStateString(t *testing.T) {
	for _, s := range []PowerState{StateActiveStandby, StatePrechargePD, StateActivePD, StateSelfRefresh} {
		if s.String() == "" {
			t.Error("empty state string")
		}
	}
	if PowerState(42).String() != "PowerState(42)" {
		t.Error("unknown state string")
	}
}

func TestAddressMappings(t *testing.T) {
	for _, m := range []AddressMapping{MapRowBankCol, MapBankRowCol, MapRowXORBankCol} {
		cfg := DefaultConfig()
		cfg.Mapping = m
		if m.String() == "" {
			t.Error("empty mapping name")
		}
		seen := map[Coord]bool{}
		// Distinct addresses must decode to distinct coordinates
		// (injectivity over a sample window).
		for addr := uint64(0); addr < 1<<16; addr++ {
			co := cfg.Decode(addr)
			if co.Bank < 0 || co.Bank >= cfg.Banks || co.Row < 0 || co.Row >= cfg.RowsPerBank ||
				co.Col < 0 || co.Col >= cfg.LinesPerRow() {
				t.Fatalf("%v: Decode(%d) out of range: %+v", m, addr, co)
			}
			if seen[co] {
				t.Fatalf("%v: coordinate collision at %d", m, addr)
			}
			seen[co] = true
		}
	}
	if AddressMapping(9).String() != "AddressMapping(9)" {
		t.Error("unknown mapping string")
	}
}

func TestBankRowColKeepsBankFixed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mapping = MapBankRowCol
	// The first rows-per-bank * lines-per-row addresses stay in bank 0.
	span := uint64(cfg.RowsPerBank) * uint64(cfg.LinesPerRow())
	if got := cfg.Decode(span - 1).Bank; got != 0 {
		t.Errorf("late address bank = %d, want 0", got)
	}
	if got := cfg.Decode(span).Bank; got != 1 {
		t.Errorf("next span bank = %d, want 1", got)
	}
}

func TestXORMappingSpreadsRowStrides(t *testing.T) {
	// A stride that always hits bank 0 under row:bank:col hits all banks
	// under the XOR permutation.
	plain := DefaultConfig()
	xored := DefaultConfig()
	xored.Mapping = MapRowXORBankCol
	stride := uint64(plain.LinesPerRow() * plain.Banks) // one full row set
	banksPlain := map[int]bool{}
	banksXOR := map[int]bool{}
	for i := uint64(0); i < 16; i++ {
		banksPlain[plain.Decode(i*stride).Bank] = true
		banksXOR[xored.Decode(i*stride).Bank] = true
	}
	if len(banksPlain) != 1 {
		t.Errorf("plain mapping banks = %d, want 1 (pathological stride)", len(banksPlain))
	}
	if len(banksXOR) != plain.Banks {
		t.Errorf("XOR mapping banks = %d, want %d", len(banksXOR), plain.Banks)
	}
}

func TestPerBankRefresh(t *testing.T) {
	ch := newTestChannel(t)
	tm := ch.Config().Timing
	if err := ch.REFpb(0); err != nil && !ch.CanREFpb(0) {
		// Fresh channel: bank 0 is precharged, REFpb must be legal.
		t.Fatalf("REFpb on fresh bank: %v", err)
	}
	// Bank 0 is blocked for tRFCpb; other banks are not.
	if ch.CanACT(0) {
		t.Error("ACT legal on refreshing bank")
	}
	if !ch.CanACT(1) {
		t.Error("ACT should stay legal on other banks during REFpb")
	}
	tickTo(ch, uint64(tm.TRFCpb))
	if !ch.CanACT(0) {
		t.Error("ACT should be legal after tRFCpb")
	}
	if got := ch.Stats().NREFpb; got != 1 {
		t.Errorf("NREFpb = %d", got)
	}
	// REFpb illegal with a row open.
	if err := ch.ACT(1, 5); err != nil {
		t.Fatal(err)
	}
	if ch.CanREFpb(1) {
		t.Error("REFpb legal with open row")
	}
	if err := ch.REFpb(1); err == nil {
		t.Error("REFpb with open row: want error")
	}
}

func dualRankConfig() Config {
	cfg := DefaultConfig()
	cfg.Ranks = 2
	return cfg
}

func TestMultiRankGeometry(t *testing.T) {
	cfg := dualRankConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.CapacityBytes(); got != 2<<30 {
		t.Errorf("2-rank capacity = %d, want 2 GB", got)
	}
	if cfg.TotalBanks() != 8 {
		t.Errorf("total banks = %d", cfg.TotalBanks())
	}
	if cfg.RankOfBank(3) != 0 || cfg.RankOfBank(4) != 1 {
		t.Error("RankOfBank mapping")
	}
	// Rank bits sit above bank bits: after the 4 banks of rank 0, the
	// next row-sized chunk lands in rank 1.
	lpr := uint64(cfg.LinesPerRow())
	co := cfg.Decode(lpr * 4)
	if co.Rank != 1 || co.Bank != 4 || co.Row != 0 {
		t.Errorf("decoded %+v, want rank 1 bank 4 row 0", co)
	}
	// Injectivity over a window spanning both ranks.
	seen := map[Coord]bool{}
	for addr := uint64(0); addr < 1<<16; addr++ {
		c := cfg.Decode(addr)
		if seen[c] {
			t.Fatalf("coordinate collision at %d", addr)
		}
		seen[c] = true
	}
	// Bad rank count rejected.
	bad := DefaultConfig()
	bad.Ranks = 3
	if err := bad.Validate(); err == nil {
		t.Error("ranks=3: want error")
	}
}

func TestPerRankTimingIndependence(t *testing.T) {
	cfg := dualRankConfig()
	ch, err := NewChannel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm := cfg.Timing
	// tRRD is per rank: back-to-back ACTs to different ranks are legal
	// in the same cycle window.
	if err := ch.ACT(0, 1); err != nil {
		t.Fatal(err)
	}
	if !ch.CanACT(4) {
		t.Error("ACT to the other rank should not be gated by tRRD")
	}
	if ch.CanACT(1) {
		t.Error("same-rank ACT should be gated by tRRD")
	}
	if err := ch.ACT(4, 1); err != nil {
		t.Fatal(err)
	}
	// tFAW is per rank: 4 ACTs in rank 0 block only rank 0.
	tickTo(ch, uint64(tm.TRRD))
	if err := ch.ACT(1, 1); err != nil {
		t.Fatal(err)
	}
	tickTo(ch, uint64(2*tm.TRRD))
	if err := ch.ACT(2, 1); err != nil {
		t.Fatal(err)
	}
	tickTo(ch, uint64(3*tm.TRRD))
	if err := ch.ACT(3, 1); err != nil {
		t.Fatal(err)
	}
	// Rank 0 has 4 ACTs since cycle 0; rank 1 only one.
	if ch.fawOK(&ch.ranks[0]) {
		t.Error("rank 0 tFAW should be exhausted")
	}
	if !ch.fawOK(&ch.ranks[1]) {
		t.Error("rank 1 tFAW should be clear")
	}
	// Write-to-read turnaround is per rank: a write burst in rank 0 does
	// not impose tWTR on rank 1 (only the bus turnaround applies).
	tickTo(ch, uint64(tm.TRCD)+uint64(3*tm.TRRD))
	dataEnd, err := ch.WR(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tickTo(ch, dataEnd)
	if ch.CanRD(0, 1) {
		t.Error("same-rank RD legal during tWTR")
	}
	// Cross-rank read: gated by bus turnaround (tRTRS), not tWTR. At
	// dataEnd, dataStart = now+CL >= busFreeAt+tRTRS holds (CL=3 > 2).
	if !ch.CanRD(4, 1) {
		t.Error("cross-rank RD should be legal after the bus turnaround")
	}
}

func TestCrossRankBusTurnaround(t *testing.T) {
	cfg := dualRankConfig()
	ch, err := NewChannel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm := cfg.Timing
	if err := ch.ACT(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := ch.ACT(4, 1); err != nil {
		t.Fatal(err)
	}
	tickTo(ch, uint64(tm.TRCD))
	if _, err := ch.RD(0, 1); err != nil {
		t.Fatal(err)
	}
	// Same-rank back-to-back read is legal right at tCCD (the bus frees
	// exactly as the next burst starts); the cross-rank read needs tRTRS
	// more.
	tickTo(ch, ch.Now()+uint64(tm.TCCD))
	if !ch.CanRD(0, 1) {
		t.Error("same-rank RD should be legal at tCCD")
	}
	if ch.CanRD(4, 1) {
		t.Error("cross-rank RD should wait for tRTRS")
	}
	tickTo(ch, ch.Now()+uint64(tm.TRTRS))
	if !ch.CanRD(4, 1) {
		t.Error("cross-rank RD should be legal after tRTRS")
	}
}

func TestAuditorCatchesViolations(t *testing.T) {
	cfg := DefaultConfig()
	a := NewAuditor(cfg)
	// A legal mini-sequence validates.
	a.Record(0, CmdACT, 0, 5)
	a.Record(3, CmdRD, 0, 5)
	a.Record(8, CmdPRE, 0, 0)
	if err := a.Validate(); err != nil {
		t.Fatalf("legal sequence flagged: %v", err)
	}
	// Each violation class is caught.
	cases := []struct {
		name string
		recs []CommandRecord
	}{
		{"tRCD", []CommandRecord{{0, CmdACT, 0, 1}, {1, CmdRD, 0, 1}}},
		{"tRC", []CommandRecord{{0, CmdACT, 0, 1}, {8, CmdPRE, 0, 0}, {10, CmdACT, 0, 2}}},
		{"tRAS", []CommandRecord{{0, CmdACT, 0, 1}, {4, CmdPRE, 0, 0}}},
		{"tRRD", []CommandRecord{{0, CmdACT, 0, 1}, {1, CmdACT, 1, 1}}},
		{"open-ACT", []CommandRecord{{0, CmdACT, 0, 1}, {20, CmdACT, 0, 2}}},
		{"closed-RD", []CommandRecord{{5, CmdRD, 0, 1}}},
		{"closed-PRE", []CommandRecord{{5, CmdPRE, 0, 0}}},
		{"REF-open", []CommandRecord{{0, CmdACT, 0, 1}, {20, CmdREF, 0, 0}}},
		{"tCCD", []CommandRecord{{0, CmdACT, 0, 1}, {3, CmdRD, 0, 1}, {5, CmdRD, 0, 1}}},
		{"tWTR", []CommandRecord{{0, CmdACT, 0, 1}, {3, CmdWR, 0, 1}, {8, CmdRD, 0, 1}}},
	}
	for _, c := range cases {
		a := NewAuditor(cfg)
		for _, r := range c.recs {
			a.Record(r.Cycle, r.Kind, r.Bank, r.Row)
		}
		if err := a.Validate(); err == nil {
			t.Errorf("%s: violation not caught", c.name)
		}
	}
	if CmdACT.String() != "ACT" || CommandKind(99).String() != "CommandKind(99)" {
		t.Error("command kind strings")
	}
}

func TestValidateRefreshCadence(t *testing.T) {
	cfg := DefaultConfig()
	a := NewAuditor(cfg)
	a.Record(0, CmdREF, 0, 0)
	a.Record(1560, CmdREF, 0, 0)
	a.Record(3120, CmdREF, 0, 0)
	if err := a.ValidateRefreshCadence(1600); err != nil {
		t.Fatalf("regular cadence flagged: %v", err)
	}
	if err := a.ValidateRefreshCadence(1000); err == nil {
		t.Fatal("wide gap not flagged")
	}
	// Per-bank: a full rotation counts as one refresh event.
	b := NewAuditor(cfg)
	for i := 0; i < cfg.TotalBanks()*3; i++ {
		b.Record(uint64(i)*390, CmdREFpb, i%cfg.TotalBanks(), 0)
	}
	if err := b.ValidateRefreshCadence(1600); err != nil {
		t.Fatalf("REFpb cadence flagged: %v", err)
	}
}

// TestEarliestMatchesCan pins the contract the controller's FR-FCFS pass
// schedules on: in active standby, each Can* predicate holds at the
// current cycle exactly when the cycle has reached its Earliest* value.
// Random legal traffic over two ranks (so tRTRS, tRRD, tFAW, tWTR, the
// refresh blackouts and the power-down exit stall all come into play)
// checks every bank on every cycle.
func TestEarliestMatchesCan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ranks = 2
	ch, err := NewChannel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	banks := cfg.TotalBanks()
	for cycle := 0; cycle < 50_000; cycle++ {
		if ch.State() == StateActiveStandby {
			now := ch.Now()
			for b := 0; b < banks; b++ {
				if !ch.AnyRowOpen(b) {
					if got, want := ch.CanACT(b), now >= ch.EarliestACT(b); got != want {
						t.Fatalf("cycle %d bank %d: CanACT = %v, EarliestACT %d", now, b, got, ch.EarliestACT(b))
					}
					continue
				}
				row := ch.OpenRow(b)
				if got, want := ch.CanRD(b, row), now >= ch.EarliestRD(b); got != want {
					t.Fatalf("cycle %d bank %d: CanRD = %v, EarliestRD %d", now, b, got, ch.EarliestRD(b))
				}
				if got, want := ch.CanWR(b, row), now >= ch.EarliestWR(b); got != want {
					t.Fatalf("cycle %d bank %d: CanWR = %v, EarliestWR %d", now, b, got, ch.EarliestWR(b))
				}
				if got, want := ch.CanPRE(b), now >= ch.EarliestPRE(b); got != want {
					t.Fatalf("cycle %d bank %d: CanPRE = %v, EarliestPRE %d", now, b, got, ch.EarliestPRE(b))
				}
			}
		}
		// Issue at most one random legal command, or change power state.
		b := rng.Intn(banks)
		switch op := rng.Intn(20); {
		case ch.State() != StateActiveStandby:
			if op < 2 {
				if err := ch.ExitPowerDown(); err != nil {
					t.Fatal(err)
				}
			}
		case op < 5 && ch.CanACT(b):
			err = ch.ACT(b, rng.Intn(4))
		case op < 9 && ch.AnyRowOpen(b) && ch.CanRD(b, ch.OpenRow(b)):
			_, err = ch.RD(b, ch.OpenRow(b))
		case op < 12 && ch.AnyRowOpen(b) && ch.CanWR(b, ch.OpenRow(b)):
			_, err = ch.WR(b, ch.OpenRow(b))
		case op < 15 && ch.CanPRE(b):
			err = ch.PRE(b)
		case op == 15 && ch.CanREFpb(b):
			err = ch.REFpb(b)
		case op == 16 && ch.CanREF():
			err = ch.REF()
		case op == 17 && rng.Intn(50) == 0:
			err = ch.EnterPowerDown()
		}
		if err != nil {
			t.Fatal(err)
		}
		ch.Tick()
	}
}
