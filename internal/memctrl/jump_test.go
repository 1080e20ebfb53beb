package memctrl

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dram"
)

// traceHarness drives one controller through a scripted schedule and
// records every observable: completion (tag, DoneAt) pairs in callback
// order, the channel's command stream and power-state timeline (from an
// attached dram.Auditor, so a transition is stamped with the cycle it
// happens on, whatever call makes it), channel stats, controller stats,
// final state.
type traceHarness struct {
	ch    *dram.Channel
	ctl   *Controller
	aud   *dram.Auditor
	trace []string
	// waitTag is the demand read a closed-loop client blocks on; arrived
	// latches when its completion callback fires.
	waitTag uint64
	arrived bool
}

func newTraceHarness(t *testing.T, dcfg dram.Config, cfg Config) *traceHarness {
	t.Helper()
	ch, err := dram.NewChannel(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &traceHarness{ch: ch, aud: dram.NewAuditor(dcfg)}
	ch.SetAuditor(h.aud)
	ctl, err := New(ch, cfg, func(r *Request) {
		h.trace = append(h.trace, fmt.Sprintf("done tag=%d at=%d enq=%d", r.Tag, r.DoneAt, r.EnqueuedAt))
		if r.Tag == h.waitTag {
			h.arrived = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	h.ctl = ctl
	return h
}

// stepTo advances to the target cycle via StepOrJump (which per-cycle
// steps when cfg.LegacyStepping is set).
func (h *traceHarness) stepTo(target uint64) {
	for h.ch.Now() < target {
		h.ctl.StepOrJump(target)
	}
}

// enqueue adds a request, stepping one cycle at a time until the queue
// accepts it (bit-exact on both paths).
func (h *traceHarness) enqueue(t *testing.T, isWrite bool, addr, tag uint64) {
	t.Helper()
	var err error
	if isWrite {
		for !h.ctl.CanEnqueueWrite() {
			h.ctl.StepOrJump(h.ch.Now() + 1)
		}
		err = h.ctl.EnqueueWrite(addr, tag)
	} else {
		for !h.ctl.CanEnqueueRead() {
			h.ctl.StepOrJump(h.ch.Now() + 1)
		}
		err = h.ctl.EnqueueRead(addr, tag)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// scheduleOp is one scripted arrival.
type scheduleOp struct {
	cycle   uint64
	isWrite bool
	addr    uint64
}

// runSchedule replays the arrivals, then drains and idles a tail so
// power-down and refresh behavior past the last request is covered too.
func (h *traceHarness) runSchedule(t *testing.T, ops []scheduleOp, tailIdle uint64) {
	t.Helper()
	for i, op := range ops {
		h.stepTo(op.cycle)
		h.enqueue(t, op.isWrite, op.addr, uint64(i))
	}
	h.stepTo(h.ch.Now() + tailIdle)
}

// runClosedLoop drives the controller as a blocking client, the way the
// simulation runner does: each of n iterations enqueues a demand read,
// one time in two an unawaited next-line read (when the queue has room)
// and, one time in three, a write; drifts with StepOrJump(^uint64(0))
// until the demand read's callback fires; then computes for 0-40
// cycles, long enough for the rank to power down. Every arrival depends
// on the cycle at which a callback handed control back, so a jump that
// crosses a callback shifts the rest of the run, and a demand read
// alone in the queues is the one-request service from power-down.
func (h *traceHarness) runClosedLoop(t *testing.T, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		addr := uint64(rng.Intn(1 << 16))
		h.waitTag, h.arrived = uint64(2*i+1), false
		h.enqueue(t, false, addr, h.waitTag)
		if rng.Intn(2) == 0 && h.ctl.CanEnqueueRead() {
			h.enqueue(t, false, addr+1, h.waitTag+1)
		}
		if rng.Intn(3) == 0 {
			h.enqueue(t, true, uint64(rng.Intn(1<<16)), 0)
		}
		for !h.arrived {
			h.ctl.StepOrJump(^uint64(0))
		}
		h.trace = append(h.trace, fmt.Sprintf("resume at=%d", h.ch.Now()))
		h.stepTo(h.ch.Now() + uint64(rng.Intn(41)))
	}
}

// randomSchedule builds a bursty arrival pattern with long quiescent
// gaps — exactly the shape the jump path accelerates — plus clustered
// addresses for row locality.
func randomSchedule(rng *rand.Rand, n int) []scheduleOp {
	ops := make([]scheduleOp, n)
	cycle := uint64(10)
	for i := range ops {
		switch rng.Intn(3) {
		case 0: // burst
			cycle += uint64(rng.Intn(6))
		case 1: // short gap
			cycle += uint64(rng.Intn(200))
		default: // long quiescent gap spanning refresh slots and PD entry
			cycle += uint64(rng.Intn(20_000))
		}
		ops[i] = scheduleOp{
			cycle:   cycle,
			isWrite: rng.Intn(3) == 0,
			addr:    uint64(rng.Intn(1<<14)) * 64,
		}
	}
	return ops
}

// diffConfig is one setup the differentials run: a controller policy
// over a channel.
type diffConfig struct {
	dram dram.Config
	ctl  Config
}

// diffConfigs is the config matrix the jump-vs-legacy differentials
// run over: default, per-bank refresh, closed-page, no power-down,
// power-down after one and after two idle cycles (entry on the idle
// jump's first cycles), refresh off, FCFS, a drain on every write
// (high watermark 1, low 0, so a drain can still be pending when the
// rank powers down), all on the default channel, and the default
// policy on a channel with zero tRCD and tRP.
func diffConfigs() map[string]diffConfig {
	base := DefaultConfig()
	drain := base
	drain.WriteHighWater, drain.WriteLowWater = 1, 0
	perBank := base
	perBank.PerBankRefresh = true
	closed := base
	closed.PagePolicy = ClosedPage
	noPD := base
	noPD.PowerDownIdle = 0
	pd1 := base
	pd1.PowerDownIdle = 1
	pd2 := base
	pd2.PowerDownIdle = 2
	noRef := base
	noRef.RefreshEnabled = false
	fcfs := base
	fcfs.FCFS = true
	// With zero tRCD and tRP a command could follow the previous one on
	// the same cycle; one command per cycle is what holds it back.
	tight := dram.DefaultConfig()
	tight.Timing.TRCD, tight.Timing.TRP = 0, 0
	configs := map[string]diffConfig{"tight": {tight, base}}
	for name, ctl := range map[string]Config{
		"default": base, "perbank": perBank, "closedpage": closed,
		"nopd": noPD, "pd1": pd1, "pd2": pd2, "norefresh": noRef, "fcfs": fcfs, "drain": drain,
	} {
		configs[name] = diffConfig{dram.DefaultConfig(), ctl}
	}
	return configs
}

// diffAgainstLegacy runs drive on a LegacyStepping harness and on a
// jumping one, for every config of diffConfigs and six seeds, and
// requires the two to agree bit-exactly (see requireSameRun).
func diffAgainstLegacy(t *testing.T, drive func(t *testing.T, h *traceHarness, seed int64)) {
	for name, dc := range diffConfigs() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				legacyCfg := dc.ctl
				legacyCfg.LegacyStepping = true
				ref := newTraceHarness(t, dc.dram, legacyCfg)
				drive(t, ref, seed)

				fast := newTraceHarness(t, dc.dram, dc.ctl)
				drive(t, fast, seed)

				requireSameRun(t, fmt.Sprintf("seed %d", seed), fast, ref)
			}
		})
	}
}

// requireSameRun fails unless a jumping harness and its legacy twin
// agree bit-exactly: same completion trace, same command stream and
// power-state timeline (with cycles), same clock and final state, same
// channel command/residency statistics, same controller statistics.
func requireSameRun(t *testing.T, label string, fast, ref *traceHarness) {
	t.Helper()
	requireSameList(t, label+": trace", fast.trace, ref.trace)
	requireSameList(t, label+": power states", fast.aud.States(), ref.aud.States())
	requireSameList(t, label+": commands", fast.aud.Records(), ref.aud.Records())
	if fast.ch.Now() != ref.ch.Now() {
		t.Fatalf("%s: now %d vs %d", label, fast.ch.Now(), ref.ch.Now())
	}
	if fast.ch.State() != ref.ch.State() {
		t.Fatalf("%s: state %v vs %v", label, fast.ch.State(), ref.ch.State())
	}
	if fast.ch.Stats() != ref.ch.Stats() {
		t.Fatalf("%s: channel stats diverged:\nfast: %+v\nref:  %+v",
			label, fast.ch.Stats(), ref.ch.Stats())
	}
	if fast.ctl.Stats() != ref.ctl.Stats() {
		t.Fatalf("%s: controller stats diverged:\nfast: %+v\nref:  %+v",
			label, fast.ctl.Stats(), ref.ctl.Stats())
	}
}

// requireSameList fails at the first entry where got and want differ.
func requireSameList[E comparable](t *testing.T, label string, got, want []E) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %+v, want %+v", label, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: lengths differ: %d vs %d\nfast tail: %+v\nref tail: %+v",
			label, len(got), len(want), tail(got), tail(want))
	}
}

// TestJumpMatchesLegacyStepping is the jump-vs-legacy property test on
// open-loop input: randomized bursty arrival schedules, replayed at
// fixed cycles whatever the controller does.
func TestJumpMatchesLegacyStepping(t *testing.T) {
	diffAgainstLegacy(t, func(t *testing.T, h *traceHarness, seed int64) {
		h.runSchedule(t, randomSchedule(rand.New(rand.NewSource(100+seed)), 120), 200_000)
	})
}

// TestJumpMatchesLegacyClosedLoop is the closed-loop twin: a blocking
// client whose next arrivals wait on its demand read's callback. It
// pins the rule that no jump crosses a completion callback, which the
// open-loop schedules cannot see.
func TestJumpMatchesLegacyClosedLoop(t *testing.T) {
	diffAgainstLegacy(t, func(t *testing.T, h *traceHarness, seed int64) {
		h.runClosedLoop(t, rand.New(rand.NewSource(200+seed)), 300)
		h.stepTo(h.ch.Now() + 20_000)
	})
}

func tail[E any](s []E) []E {
	if len(s) > 5 {
		return s[len(s)-5:]
	}
	return s
}

// TestJumpSkipsCycles sanity-checks that the fast path actually jumps:
// covering a long idle stretch must take far fewer StepOrJump calls
// than cycles.
func TestJumpSkipsCycles(t *testing.T) {
	ch, err := dram.NewChannel(dram.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(ch, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const target = 1_000_000
	calls := 0
	for ch.Now() < target {
		ctl.StepOrJump(target)
		calls++
		if calls > 100_000 {
			t.Fatalf("no jumping: %d calls for %d cycles", calls, ch.Now())
		}
	}
	if calls > 10_000 {
		t.Errorf("jump path too weak: %d calls to cover %d idle cycles", calls, target)
	}
	t.Logf("%d StepOrJump calls covered %d idle cycles", calls, target)
}

// TestOneRequestServiceCalls pins the controller's call counts around a
// lone request. An idle call enters power-down and jumps on, to limit or
// to the next refresh slot. From power-down, a lone read takes one
// StepOrJump call: it wakes the rank, issues ACT and RD and fires the
// callback, ending on the cycle after the data return. A lone write that
// conflicts with the open row issues its PRE, ACT and WR in one call.
// Per-cycle issue takes a call for every command and another for every
// wait between them.
func TestOneRequestServiceCalls(t *testing.T) {
	ch, err := dram.NewChannel(dram.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var done []uint64
	ctl, err := New(ch, DefaultConfig(), func(r *Request) { done = append(done, r.DoneAt) })
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 of bank 0, then row 1 of bank 0 (row:bank:col mapping).
	row1 := uint64(ch.Config().Banks * ch.Config().LinesPerRow())

	ctl.StepOrJump(100)
	if ch.State() != dram.StatePrechargePD || ch.Now() != 100 || ctl.Stats().PowerDownEntries != 1 {
		t.Fatalf("idle call to 100 ended in %v at %d after %d power-down entries; want precharge power-down at 100 after 1",
			ch.State(), ch.Now(), ctl.Stats().PowerDownEntries)
	}

	if err := ctl.EnqueueRead(0, 1); err != nil {
		t.Fatal(err)
	}
	ctl.StepOrJump(^uint64(0))
	if s := ch.Stats(); s.NACT != 1 || s.NRD != 1 || len(done) != 1 {
		t.Fatalf("read call: ACT %d, RD %d, callbacks %d; want 1, 1, 1", s.NACT, s.NRD, len(done))
	}
	if ch.Now() != done[0]+1 || ch.State() != dram.StateActiveStandby {
		t.Fatalf("read call ended in %v at %d, data returned at %d; want active standby one cycle after the data",
			ch.State(), ch.Now(), done[0])
	}

	if err := ctl.EnqueueWrite(row1, 2); err != nil {
		t.Fatal(err)
	}
	before := ch.Stats()
	ctl.StepOrJump(^uint64(0))
	s := ch.Stats()
	if s.NPRE-before.NPRE != 1 || s.NACT-before.NACT != 1 || s.NWR-before.NWR != 1 || ctl.Pending() != 0 {
		t.Fatalf("write call issued PRE %d, ACT %d, WR %d with %d pending; want 1, 1, 1 and 0",
			s.NPRE-before.NPRE, s.NACT-before.NACT, s.NWR-before.NWR, ctl.Pending())
	}

	ctl.StepOrJump(^uint64(0))
	slot := uint64(ch.Config().Timing.TREFI)
	if ch.State() != dram.StateActivePD || ch.Now() != slot || ctl.Stats().PowerDownEntries != 2 {
		t.Fatalf("idle call ended in %v at %d after %d power-down entries; want active power-down at the refresh slot %d after 2",
			ch.State(), ch.Now(), ctl.Stats().PowerDownEntries, slot)
	}
}

// TestStepOrJumpZeroAllocs: every fast path must stay off the heap.
func TestStepOrJumpZeroAllocs(t *testing.T) {
	newCtl := func(t *testing.T) (*dram.Channel, *Controller) {
		ch, err := dram.NewChannel(dram.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := New(ch, DefaultConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return ch, ctl
	}
	t.Run("idle", func(t *testing.T) {
		ch, ctl := newCtl(t)
		ctl.StepOrJump(ch.Now() + 10_000) // warm up
		if n := testing.AllocsPerRun(200, func() {
			ctl.StepOrJump(ch.Now() + 10_000)
		}); n != 0 {
			t.Fatalf("StepOrJump allocates %v per call, want 0", n)
		}
	})
	t.Run("busy", func(t *testing.T) {
		ch, ctl := newCtl(t)
		// A burst of 8 reads and 8 writes, each to its own row (row i of
		// bank i%4 under the default row:bank:col mapping), stepped until
		// every request has completed.
		linesPerRow := uint64(ch.Config().LinesPerRow())
		banks := uint64(ch.Config().Banks)
		burst := func() {
			for i := uint64(0); i < 16; i++ {
				addr := (i*banks + i%banks) * linesPerRow
				var err error
				if i < 8 {
					err = ctl.EnqueueRead(addr, i)
				} else {
					err = ctl.EnqueueWrite(addr, i)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for ctl.Pending() > 0 {
				ctl.StepOrJump(^uint64(0))
			}
		}
		burst() // warm up: fills the request freelist
		if n := testing.AllocsPerRun(50, burst); n != 0 {
			t.Fatalf("a busy burst allocates %v, want 0", n)
		}
	})
	t.Run("one-request", func(t *testing.T) {
		ch, ctl := newCtl(t)
		// A lone read, then a lone write to the next row of bank 0, each
		// stepped to completion: the service's ACT/RD and PRE/ACT/WR
		// chains (and PRE/ACT/RD from the second round on).
		rowLines := uint64(ch.Config().Banks * ch.Config().LinesPerRow())
		row := uint64(0)
		lone := func() {
			for _, write := range []bool{false, true} {
				row++
				var err error
				if write {
					err = ctl.EnqueueWrite(row*rowLines, row)
				} else {
					err = ctl.EnqueueRead(row*rowLines, row)
				}
				if err != nil {
					t.Fatal(err)
				}
				for ctl.Pending() > 0 {
					ctl.StepOrJump(^uint64(0))
				}
			}
		}
		lone() // warm up: fills the request freelist
		if n := testing.AllocsPerRun(200, lone); n != 0 {
			t.Fatalf("a lone read and write allocate %v, want 0", n)
		}
	})
}
