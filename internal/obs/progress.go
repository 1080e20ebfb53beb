package obs

import "sync/atomic"

// Progress is the live "where is the run" surface scraped by
// obs/httpserv's /progress endpoint. Done and Total count retired
// instructions: the harness (or meccsim) sets Total to the sum of its
// runs' instruction budgets, and each runner adds its retired-instruction
// growth to Done on its publish cadence (every 1024 trace records, at
// phase boundaries and at the end), so parallel runners sharing one
// tracker add up instead of overwriting each other. The writing side is
// the simulator loop, so every field is a single atomic operation — no
// locks, no allocation (phase strings are stored by pointer; callers
// pass long-lived labels). A nil *Progress is a no-op. Throughput and
// ETA are deliberately not computed here: the scraper derives them from
// successive snapshots, keeping rate math off the hot path.
type Progress struct {
	phase   atomic.Pointer[string]
	done    atomic.Uint64
	total   atomic.Uint64
	simTime atomic.Uint64
	quantum atomic.Uint64
}

// NewProgress builds an empty progress tracker.
func NewProgress() *Progress { return &Progress{} }

// SetPhase labels the current phase ("active", "idle", an exhibit
// name, ...). The string is retained by pointer; pass stable labels.
func (p *Progress) SetPhase(phase string) {
	if p == nil {
		return
	}
	p.phase.Store(&phase)
}

// SetWork sets the done/total work counters (retired instructions in
// the simulator's harnesses).
func (p *Progress) SetWork(done, total uint64) {
	if p == nil {
		return
	}
	p.done.Store(done)
	p.total.Store(total)
}

// AddDone advances the done counter by n.
func (p *Progress) AddDone(n uint64) {
	if p == nil {
		return
	}
	p.done.Add(n)
}

// AddTotal raises the total by n. A runner whose last trace record
// carried it past its instruction budget adds the excess, so Total stays
// an upper bound on Done and the two meet when every run completes.
func (p *Progress) AddTotal(n uint64) {
	if p == nil {
		return
	}
	p.total.Add(n)
}

// SetSimTime publishes the current simulated time in CPU cycles.
func (p *Progress) SetSimTime(cycles uint64) {
	if p == nil {
		return
	}
	p.simTime.Store(cycles)
}

// SetQuantum publishes the current quantum index.
func (p *Progress) SetQuantum(q uint64) {
	if p == nil {
		return
	}
	p.quantum.Store(q)
}

// ProgressSnapshot is one consistent-enough read of the tracker (fields
// are read individually; skew between them is bounded by one store).
type ProgressSnapshot struct {
	Phase   string `json:"phase"`
	Done    uint64 `json:"done"`
	Total   uint64 `json:"total"`
	SimTime uint64 `json:"sim_time_cycles"`
	Quantum uint64 `json:"quantum"`
}

// Snapshot reads the current state (zero value on a nil receiver).
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	var phase string
	if s := p.phase.Load(); s != nil {
		phase = *s
	}
	return ProgressSnapshot{
		Phase:   phase,
		Done:    p.done.Load(),
		Total:   p.total.Load(),
		SimTime: p.simTime.Load(),
		Quantum: p.quantum.Load(),
	}
}
