package checker

import (
	"fmt"
	"math/rand"
	"sort"
)

// FaultKind classifies an injected fault.
type FaultKind int

// Fault kinds. Memory faults (FlipDataBit, FlipCheckBit) are applied to
// stored lines by the test harness; refresh faults (DropRefresh,
// DelayRefresh) are consumed by the memory controller at refresh-issue
// points.
const (
	// FlipDataBit flips one data bit (0..511) of a stored line.
	FlipDataBit FaultKind = iota + 1
	// FlipCheckBit flips one spare/check bit of a stored line (the
	// harness maps Bit into the spare field).
	FlipCheckBit
	// DropRefresh silently swallows one due auto-refresh command.
	DropRefresh
	// DelayRefresh postpones one due auto-refresh by DelayCycles.
	DelayRefresh
)

// String renders the kind.
func (k FaultKind) String() string {
	switch k {
	case FlipDataBit:
		return "flip-data-bit"
	case FlipCheckBit:
		return "flip-check-bit"
	case DropRefresh:
		return "drop-refresh"
	case DelayRefresh:
		return "delay-refresh"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is one scheduled fault.
type Fault struct {
	// Kind selects the fault type.
	Kind FaultKind
	// Seq orders the fault: for refresh faults it is the refresh issue
	// sequence number at which the fault fires; for memory faults it is
	// the injection step.
	Seq uint64
	// LineAddr targets a stored line (memory faults).
	LineAddr uint64
	// Bit is the bit to flip within the line (memory faults): data bits
	// 0..511, check bits from 512 up.
	Bit int
	// DelayCycles postpones the refresh (DelayRefresh only).
	DelayCycles uint64
}

// FaultPlan is a deterministic, seeded fault schedule, sorted by Seq.
type FaultPlan struct {
	// Seed records the generator seed for reproduction in logs.
	Seed int64
	// Faults holds the schedule in Seq order.
	Faults []Fault
}

// RandomPlan builds a schedule of n faults drawn from the given kinds
// (all four when none are named), targeting lines in [0, totalLines) and
// refresh sequence numbers in [0, seqSpan). The same seed always yields
// the same plan.
func RandomPlan(seed int64, n int, totalLines, seqSpan uint64, kinds ...FaultKind) *FaultPlan {
	if len(kinds) == 0 {
		kinds = []FaultKind{FlipDataBit, FlipCheckBit, DropRefresh, DelayRefresh}
	}
	if totalLines == 0 {
		totalLines = 1
	}
	if seqSpan == 0 {
		seqSpan = 1
	}
	rng := rand.New(rand.NewSource(seed))
	p := &FaultPlan{Seed: seed, Faults: make([]Fault, 0, n)}
	for i := 0; i < n; i++ {
		f := Fault{
			Kind: kinds[rng.Intn(len(kinds))],
			Seq:  uint64(rng.Int63n(int64(seqSpan))),
		}
		switch f.Kind {
		case FlipDataBit:
			f.LineAddr = uint64(rng.Int63n(int64(totalLines)))
			f.Bit = rng.Intn(512)
		case FlipCheckBit:
			f.LineAddr = uint64(rng.Int63n(int64(totalLines)))
			f.Bit = 512 + rng.Intn(64)
		case DelayRefresh:
			f.DelayCycles = uint64(1 + rng.Intn(4096))
		}
		p.Faults = append(p.Faults, f)
	}
	sort.SliceStable(p.Faults, func(i, j int) bool { return p.Faults[i].Seq < p.Faults[j].Seq })
	return p
}

// MemoryFaults returns the plan's stored-line faults in schedule order.
func (p *FaultPlan) MemoryFaults() []Fault {
	if p == nil {
		return nil
	}
	var out []Fault
	for _, f := range p.Faults {
		if f.Kind == FlipDataBit || f.Kind == FlipCheckBit {
			out = append(out, f)
		}
	}
	return out
}

// RefreshFaults returns the plan's refresh faults wrapped for consumption
// by the memory controller, or nil when the plan holds none.
func (p *FaultPlan) RefreshFaults() *RefreshFaults {
	if p == nil {
		return nil
	}
	bySeq := make(map[uint64][]Fault)
	n := 0
	for _, f := range p.Faults {
		if f.Kind == DropRefresh || f.Kind == DelayRefresh {
			bySeq[f.Seq] = append(bySeq[f.Seq], f)
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return &RefreshFaults{bySeq: bySeq}
}

// RefreshFaults hands refresh faults to the memory controller by issue
// sequence number. Each fault fires at most once. All methods are
// nil-safe.
type RefreshFaults struct {
	bySeq    map[uint64][]Fault
	consumed uint64
}

// Next pops the next fault scheduled for refresh sequence number seq, if
// any. Nil-safe.
func (r *RefreshFaults) Next(seq uint64) (Fault, bool) {
	if r == nil {
		return Fault{}, false
	}
	q := r.bySeq[seq]
	if len(q) == 0 {
		return Fault{}, false
	}
	f := q[0]
	if len(q) == 1 {
		delete(r.bySeq, seq)
	} else {
		r.bySeq[seq] = q[1:]
	}
	r.consumed++
	return f, true
}

// Consumed reports how many faults have fired. Nil-safe.
func (r *RefreshFaults) Consumed() uint64 {
	if r == nil {
		return 0
	}
	return r.consumed
}
