package memctrl

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/dram"
)

// fuzzOp is one scripted arrival: gap cycles after the previous one (in
// closed-loop mode, after the previous read's callback).
type fuzzOp struct {
	gap     uint64
	isWrite bool
	addr    uint64
}

// decodeFuzzInput turns fuzz bytes into a channel and controller setup
// and an arrival script. Byte 0 picks a diffConfigs entry (in name order);
// byte 1 sets PowerDownIdle to its value mod 7, where 6 keeps the
// entry's own; bit 0 of byte 2 selects the closed-loop client. Each
// following 5 bytes is one arrival, at most 64: a little-endian gap
// (mod 20,001 cycles), a kind byte (bit 0: write) and a little-endian
// line address, scaled by 8 so that 16 bits span rows, banks and
// columns.
func decodeFuzzInput(data []byte) (dc diffConfig, ops []fuzzOp, closedLoop bool) {
	configs := diffConfigs()
	names := sortedNames(configs)
	var hdr [3]byte
	copy(hdr[:], data)
	data = data[min(len(data), 3):]
	dc = configs[names[int(hdr[0])%len(names)]]
	if pd := int(hdr[1]) % 7; pd < 6 {
		dc.ctl.PowerDownIdle = pd
	}
	closedLoop = hdr[2]&1 == 1
	for len(data) >= 5 && len(ops) < 64 {
		ops = append(ops, fuzzOp{
			gap:     uint64(binary.LittleEndian.Uint16(data)) % 20_001,
			isWrite: data[2]&1 == 1,
			addr:    uint64(binary.LittleEndian.Uint16(data[3:])) * 8,
		})
		data = data[5:]
	}
	return dc, ops, closedLoop
}

// sortedNames returns the diffConfigs names in order, the fuzz input's
// config numbering.
func sortedNames(configs map[string]diffConfig) []string {
	names := make([]string, 0, len(configs))
	for name := range configs {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// encodeFuzzInput is decodeFuzzInput's inverse, for building seeds.
func encodeFuzzInput(config string, powerDownIdle byte, closedLoop bool, ops []fuzzOp) []byte {
	data := []byte{byte(slices.Index(sortedNames(diffConfigs()), config)), powerDownIdle, 0}
	if closedLoop {
		data[2] = 1
	}
	for _, op := range ops {
		var kind byte
		if op.isWrite {
			kind = 1
		}
		data = binary.LittleEndian.AppendUint16(data, uint16(op.gap))
		data = append(data, kind)
		data = binary.LittleEndian.AppendUint16(data, uint16(op.addr/8))
	}
	return data
}

// runScript replays the arrivals and idles a 20,000-cycle tail. In
// closed-loop mode every read blocks the script, the way the simulation
// runner's core blocks, until its callback fires.
func (h *traceHarness) runScript(t *testing.T, ops []fuzzOp, closedLoop bool) {
	t.Helper()
	for i, op := range ops {
		h.stepTo(h.ch.Now() + op.gap)
		tag := uint64(i + 1)
		block := closedLoop && !op.isWrite
		if block {
			// Armed before the enqueue: a read forwarded from the write
			// queue completes inside EnqueueRead.
			h.waitTag, h.arrived = tag, false
		}
		h.enqueue(t, op.isWrite, op.addr, tag)
		if block {
			for !h.arrived {
				h.ctl.StepOrJump(^uint64(0))
			}
			h.trace = append(h.trace, fmt.Sprintf("resume at=%d", h.ch.Now()))
		}
	}
	h.stepTo(h.ch.Now() + 20_000)
}

// FuzzStepOrJumpMatchesLegacy runs a fuzz-chosen config and arrival
// script on a LegacyStepping harness and on a jumping one and requires
// the same completion trace, command stream and power-state timeline,
// clock, state, channel stats and controller stats.
func FuzzStepOrJumpMatchesLegacy(f *testing.F) {
	tm := dram.DefaultTiming()
	lines := func(bank, row int) uint64 {
		cfg := dram.DefaultConfig()
		return uint64((row*cfg.Banks + bank) * cfg.LinesPerRow())
	}
	// A lone read arriving in power-down: the wake, the service and the
	// completion Step, all in one call.
	f.Add(encodeFuzzInput("default", 4, false, []fuzzOp{{gap: 100, addr: lines(1, 3)}}))
	// A lone write whose PRE/ACT/WR chain the next arrival cuts one
	// cycle before its WR. The first write opens row 0 of bank 0; the
	// second conflicts and issues PRE at once, ACT tRP later and WR tRCD
	// after that.
	f.Add(encodeFuzzInput("nopd", 6, false, []fuzzOp{
		{gap: 10, isWrite: true, addr: lines(0, 0)},
		{gap: 1000, isWrite: true, addr: lines(0, 1)},
		{gap: uint64(tm.TRP + tm.TRCD - 1), addr: lines(2, 5)},
	}))
	// A lone read whose ACT/RD chain reaches the first refresh slot.
	f.Add(encodeFuzzInput("nopd", 6, false, []fuzzOp{{gap: uint64(tm.TREFI - 2), addr: lines(3, 7)}}))
	// The same conflicting write on the zero-tRCD, zero-tRP channel,
	// where one command per cycle spaces the PRE, ACT and WR.
	f.Add(encodeFuzzInput("tight", 6, false, []fuzzOp{
		{gap: 10, isWrite: true, addr: lines(0, 0)},
		{gap: 1000, isWrite: true, addr: lines(0, 1)},
	}))
	// Power-down after one and after two idle cycles, open and closed
	// loop, with row hits, conflicts and a read forwarded from a write.
	mixed := []fuzzOp{
		{gap: 5, addr: lines(0, 0)},
		{gap: 0, isWrite: true, addr: lines(0, 1)},
		{gap: 30, addr: lines(0, 1)},
		{gap: 3, addr: lines(1, 2) + 8},
		{gap: 2000, isWrite: true, addr: lines(1, 2)},
		{gap: 1, addr: lines(1, 9)},
	}
	for _, pd := range []byte{1, 2} {
		f.Add(encodeFuzzInput("default", pd, false, mixed))
		f.Add(encodeFuzzInput("default", pd, true, mixed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dc, ops, closedLoop := decodeFuzzInput(data)
		legacyCfg := dc.ctl
		legacyCfg.LegacyStepping = true
		ref := newTraceHarness(t, dc.dram, legacyCfg)
		ref.runScript(t, ops, closedLoop)
		fast := newTraceHarness(t, dc.dram, dc.ctl)
		fast.runScript(t, ops, closedLoop)
		requireSameRun(t, fmt.Sprintf("%+v, timing %+v, %d ops, closed loop %v",
			dc.ctl, dc.dram.Timing, len(ops), closedLoop), fast, ref)
	})
}
