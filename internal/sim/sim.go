package sim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/retention"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config assembles a full-system simulation.
type Config struct {
	// DRAM is the memory geometry and timing (Table II).
	DRAM dram.Config
	// Ctrl is the memory-controller policy.
	Ctrl memctrl.Config
	// Power is the Table IV parameter set.
	Power power.Params
	// Scheme selects the protection scheme.
	Scheme SchemeKind
	// WeakDecodeCycles is the SECDED decode latency in CPU cycles.
	WeakDecodeCycles int
	// StrongDecodeCycles is the ECC-6 decode latency in CPU cycles
	// (Fig. 12 sweeps 15..60; default 30).
	StrongDecodeCycles int
	// MECC configures the morphable controller when Scheme is
	// SchemeMECC. TotalLines is filled in from DRAM automatically.
	MECC core.Config
	// Instructions is the slice length to simulate.
	Instructions int64
	// Seed drives the workload generator.
	Seed int64
	// CheckpointEvery, when positive, records (instructions, IPC) pairs
	// at this interval — the Fig. 13 transition-time study.
	CheckpointEvery int64
	// TempC is the DRAM junction temperature in degrees Celsius. It does
	// not perturb the timing model (results stay bit-identical across
	// temperatures); it parameterizes the retention-failure evaluation a
	// scenario harness performs over the run's idle periods, via
	// retention.BERAtTemp. Zero means "unset" and reads back as
	// retention.NominalTempC; nonzero values outside the LPDDR operating
	// range are rejected by Validate with ErrBadTemperature rather than
	// clamped.
	TempC float64
	// NextLinePrefetch enables a simple sequential prefetcher: each
	// demand read triggers a background fetch of the next line into a
	// small buffer that later demand reads hit with near-zero DRAM
	// latency (they still pay their ECC decode).
	NextLinePrefetch bool
	// Obs, when non-nil, receives metrics, events, and samples from
	// every layer of the simulation (internal/obs). Nil — the default —
	// keeps the hot paths on their zero-allocation no-op branches and
	// leaves results bit-identical.
	Obs *obs.Recorder
	// SpanParent, when non-zero, parents the runner's root trace span
	// under an enclosing span (e.g. an experiment-harness job span), so
	// obsdump can stitch run → experiment hierarchies across packages.
	SpanParent uint64
	// Check, when non-nil, attaches run-time invariant checkers to every
	// layer (internal/checker): refresh-ratio accounting, MECC shadow
	// state, and energy/cycle consistency. Nil — the default — compiles
	// the hooks to no-ops, preserving the zero-allocation decode path.
	Check *checker.Suite
}

// DefaultConfig returns the paper's baseline system with the given
// scheme and slice length.
func DefaultConfig(k SchemeKind, instructions int64) Config {
	d := dram.DefaultConfig()
	return Config{
		DRAM:               d,
		Ctrl:               memctrl.DefaultConfig(),
		Power:              power.DefaultParams(),
		Scheme:             k,
		WeakDecodeCycles:   ecc.DefaultSECDEDDecodeCycles,
		StrongDecodeCycles: ecc.DefaultStrongDecodeCycles,
		MECC:               core.DefaultConfig(d.TotalLines()),
		Instructions:       instructions,
		Seed:               1,
		TempC:              retention.NominalTempC,
	}
}

// Validation sentinels. The simulator used to accept whatever it was
// handed and quietly clamp or misinterpret; out-of-domain inputs now
// fail construction (and phase calls) with typed errors instead.
var (
	// ErrBadDuration reports a negative slice length, checkpoint
	// interval, decode latency or phase duration.
	ErrBadDuration = errors.New("sim: negative duration")
	// ErrBadTemperature reports a junction temperature outside the LPDDR
	// operating range (wraps the retention-layer check).
	ErrBadTemperature = errors.New("sim: temperature out of range")
)

// Validate rejects out-of-domain run parameters with sentinel errors:
// a negative instruction budget, checkpoint interval or weak or strong
// decode latency (ErrBadDuration) and a nonzero junction temperature
// outside [retention.MinTempC, retention.MaxTempC] (ErrBadTemperature).
// NewRunner calls it; scenario specs surface its errors at validation
// time.
func (c Config) Validate() error {
	if c.Instructions < 0 {
		return fmt.Errorf("%w: instructions = %d", ErrBadDuration, c.Instructions)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("%w: checkpointEvery = %d", ErrBadDuration, c.CheckpointEvery)
	}
	if c.WeakDecodeCycles < 0 {
		return fmt.Errorf("%w: weakDecodeCycles = %d", ErrBadDuration, c.WeakDecodeCycles)
	}
	if c.StrongDecodeCycles < 0 {
		return fmt.Errorf("%w: strongDecodeCycles = %d", ErrBadDuration, c.StrongDecodeCycles)
	}
	if c.TempC != 0 {
		if err := retention.CheckTemp(c.TempC); err != nil {
			return fmt.Errorf("%w: %g degC (want %g..%g)", ErrBadTemperature, c.TempC, retention.MinTempC, retention.MaxTempC)
		}
	}
	return nil
}

// Checkpoint is one Fig. 13 sample.
type Checkpoint struct {
	// Instructions retired at the sample.
	Instructions uint64 `json:"instructions"`
	// IPC is the cumulative IPC at the sample.
	IPC float64 `json:"ipc"`
}

// Result is one simulation's figures of merit. The struct marshals to
// JSON for tooling (cmd/meccsim -json).
type Result struct {
	// Benchmark and Scheme identify the run.
	Benchmark string     `json:"benchmark"`
	Scheme    SchemeKind `json:"scheme"`
	// Instructions and Cycles are the retired count and elapsed CPU
	// cycles.
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	// IPC is Instructions/Cycles.
	IPC float64 `json:"ipc"`
	// MPKI is the measured read-miss rate.
	MPKI float64 `json:"mpki"`
	// AvgReadLatencyCPU is mean DRAM read latency in CPU cycles
	// (excluding decode).
	AvgReadLatencyCPU float64 `json:"avg_read_latency_cpu"`
	// MemStallCycles is time the core spent blocked on loads.
	MemStallCycles uint64 `json:"mem_stall_cycles"`
	// DRAM and Ctrl expose the raw statistics.
	DRAM dram.Stats    `json:"dram"`
	Ctrl memctrl.Stats `json:"ctrl"`
	// MECC carries the morphable controller's stats for SchemeMECC.
	MECC *core.Stats `json:"mecc,omitempty"`
	// Energy is the DRAM energy breakdown; ECCEnergyJ adds codec energy.
	Energy     power.Breakdown `json:"energy"`
	ECCEnergyJ float64         `json:"ecc_energy_j"`
	// ActiveTimeSec is wall time of the slice at 1.6 GHz.
	ActiveTimeSec float64 `json:"active_time_sec"`
	// ActivePowerW is total energy over time.
	ActivePowerW float64 `json:"active_power_w"`
	// EDP is energy x delay (Equation 2).
	EDP float64 `json:"edp"`
	// PrefetchHits counts demand reads served from the prefetch buffer.
	PrefetchHits uint64 `json:"prefetch_hits,omitempty"`
	// Checkpoints holds Fig. 13 samples when requested.
	Checkpoints []Checkpoint `json:"checkpoints,omitempty"`
}

// TotalEnergyJ returns DRAM plus codec energy.
func (r Result) TotalEnergyJ() float64 { return r.Energy.Total() + r.ECCEnergyJ }

// Runner executes one benchmark slice. Not safe for concurrent use; build
// one Runner per goroutine.
type Runner struct {
	cfg  Config
	prof workload.Profile
	ch   *dram.Channel
	ctl  *memctrl.Controller
	cpu  *cpu.Core
	sch  scheme
	src  trace.Source
	calc *power.Calculator

	// Telemetry (nil-safe; see attachObserver and publishObs).
	obs     *obs.Recorder
	hDecode *obs.LocalHistogram
	prog    *obs.Progress
	// statCtrs holds the registry counter of each statCounters entry
	// (nil when not registered); published and publishedRetired are the
	// stats and retired count as of the last publishObs.
	statCtrs         [len(statCounters)]*obs.Counter
	published        modelStats
	publishedRetired uint64
	// Trace spans: the run root plus the currently open idle-phase span
	// (opened by GoIdle, closed by WakeUp). Nil when not tracing.
	runSpan  *obs.Span
	idleSpan *obs.Span
	// obsTickN counts processed trace records so shared telemetry
	// publishes on a coarse cadence, off the per-record path.
	obsTickN uint64

	// Invariant checking (nil-safe; see attachChecker).
	rchk        *checker.RefreshTracker
	lastEnergyJ float64

	// cpuRatio caches CPU cycles per DRAM cycle; DRAM.CPURatio() copies
	// the whole dram.Config and this runs on every trace record.
	cpuRatio uint64

	pendingWB []uint64
	waitTag   uint64
	waitDone  bool
	waitAt    uint64
	nextTag   uint64
	curShift  int

	// Next-line prefetcher state: lines ready in the buffer, in-flight
	// prefetch tags, and a FIFO for buffer eviction. prefInflightAddr is
	// the reverse index (address -> tag) so in-flight lookups never
	// depend on map iteration order; addInflight/dropInflight keep the
	// two maps in lockstep.
	prefReady        map[uint64]bool
	prefInflight     map[uint64]uint64 // tag -> line address
	prefInflightAddr map[uint64]uint64 // line address -> tag
	prefFIFO         []uint64
	prefHits         uint64

	// Phase-pattern state (phases.go).
	idle           bool
	activeCycles   uint64
	idleTime       time.Duration
	lastTransition PhaseTransition
	segmentBudget  int64
	checkpoints    []Checkpoint

	// tempC is the current junction temperature (see Config.TempC and
	// SetTempC); it never feeds the timing model.
	tempC float64
}

// NewRunner assembles a runner for one profile. The trace source is the
// profile's deterministic generator bounded by cfg.Instructions.
func NewRunner(prof workload.Profile, cfg Config) (*Runner, error) {
	gen := func(r *Runner) (trace.Source, error) {
		return workload.NewGenerator(prof, cfg.DRAM.TotalLines(), cfg.Seed)
	}
	return newRunner(prof, cfg, gen)
}

// NewRunnerWithSource assembles a runner that replays an externally
// provided trace (e.g. a file written by cmd/tracegen) instead of the
// profile's generator. The profile still supplies the core's BaseCPI and
// the run's labels.
func NewRunnerWithSource(prof workload.Profile, src trace.Source, cfg Config) (*Runner, error) {
	return newRunner(prof, cfg, func(*Runner) (trace.Source, error) { return src, nil })
}

func newRunner(prof workload.Profile, cfg Config, makeSrc func(*Runner) (trace.Source, error)) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ch, err := dram.NewChannel(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	tempC := cfg.TempC
	if tempC == 0 {
		tempC = retention.NominalTempC
	}
	r := &Runner{
		cfg:              cfg,
		prof:             prof,
		ch:               ch,
		tempC:            tempC,
		cpuRatio:         uint64(cfg.DRAM.CPURatio()),
		prefReady:        make(map[uint64]bool),
		prefInflight:     make(map[uint64]uint64),
		prefInflightAddr: make(map[uint64]uint64),
	}
	r.ctl, err = memctrl.New(ch, cfg.Ctrl, r.onReadDone)
	if err != nil {
		return nil, err
	}
	r.cpu, err = cpu.New(prof.BaseCPI)
	if err != nil {
		return nil, err
	}
	if r.src, err = makeSrc(r); err != nil {
		return nil, err
	}
	r.calc, err = power.NewCalculator(cfg.Power, cfg.DRAM)
	if err != nil {
		return nil, err
	}
	if r.sch, err = buildScheme(cfg); err != nil {
		return nil, err
	}
	r.attachObserver()
	r.attachChecker()
	return r, nil
}

func buildScheme(cfg Config) (scheme, error) {
	switch cfg.Scheme {
	case SchemeBaseline:
		return &fixedScheme{k: SchemeBaseline}, nil
	case SchemeSECDED:
		return &fixedScheme{k: SchemeSECDED, decodeCycles: cfg.WeakDecodeCycles}, nil
	case SchemeECC6:
		return &fixedScheme{k: SchemeECC6, decodeCycles: cfg.StrongDecodeCycles, strong: true}, nil
	case SchemeMECC:
		mc := cfg.MECC
		mc.TotalLines = cfg.DRAM.TotalLines()
		ctl, err := core.New(mc)
		if err != nil {
			return nil, err
		}
		// Attach telemetry before the initial wake-up so the first
		// phase transition is observable too.
		ctl.SetObserver(cfg.Obs)
		// The slice models a wake-up from idle: all lines strong.
		if err := ctl.ExitIdle(0); err != nil {
			return nil, err
		}
		return &meccScheme{
			ctl:          ctl,
			weakCycles:   cfg.WeakDecodeCycles,
			strongCycles: cfg.StrongDecodeCycles,
		}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadScheme, int(cfg.Scheme))
	}
}

func (r *Runner) onReadDone(req *memctrl.Request) {
	if req.Tag == r.waitTag {
		r.waitDone = true
		r.waitAt = req.DoneAt
		return
	}
	if addr, ok := r.prefInflight[req.Tag]; ok {
		r.dropInflight(req.Tag)
		r.bufferPrefetch(addr)
	}
}

// prefetchBufferCap bounds the prefetch buffer (FIFO eviction).
const prefetchBufferCap = 16

// bufferPrefetch stores a completed prefetch, evicting the oldest entry
// when full.
func (r *Runner) bufferPrefetch(addr uint64) {
	if r.prefReady[addr] {
		return
	}
	if len(r.prefFIFO) >= prefetchBufferCap {
		evict := r.prefFIFO[0]
		r.prefFIFO = r.prefFIFO[1:]
		delete(r.prefReady, evict)
	}
	r.prefReady[addr] = true
	r.prefFIFO = append(r.prefFIFO, addr)
}

// addInflight records an issued prefetch in both indexes.
func (r *Runner) addInflight(tag, addr uint64) {
	r.prefInflight[tag] = addr
	r.prefInflightAddr[addr] = tag
}

// dropInflight retires a prefetch from both indexes.
func (r *Runner) dropInflight(tag uint64) {
	if addr, ok := r.prefInflight[tag]; ok {
		delete(r.prefInflight, tag)
		delete(r.prefInflightAddr, addr)
	}
}

// prefetchInFlightFor finds the tag of an in-flight prefetch for the
// address, if any.
func (r *Runner) prefetchInFlightFor(addr uint64) (uint64, bool) {
	tag, ok := r.prefInflightAddr[addr]
	return tag, ok
}

// maybePrefetch issues a background fetch of the line after a demand
// address, when the prefetcher is on and the queue has room.
func (r *Runner) maybePrefetch(demandAddr uint64) {
	if !r.cfg.NextLinePrefetch {
		return
	}
	next := (demandAddr + 1) % r.cfg.DRAM.TotalLines()
	if r.prefReady[next] {
		return
	}
	if _, ok := r.prefInflightAddr[next]; ok {
		return
	}
	if !r.ctl.CanEnqueueRead() {
		return
	}
	r.nextTag++
	r.addInflight(r.nextTag, next)
	if err := r.ctl.EnqueueRead(next, r.nextTag); err != nil {
		// invariant: CanEnqueueRead was checked.
		panic(err)
	}
}

// ratio is CPU cycles per DRAM cycle.
func (r *Runner) ratio() uint64 { return r.cpuRatio }

// stepDRAMTo advances the memory system one DRAM cycle — or through one
// controller jump or one-request service toward limit (never past it) —
// and flushes pending downgrade writebacks, one per cycle. No controller
// call crosses an enqueue, a completion callback or limit. A jump never
// frees a write-queue slot (it follows only a Step that issued nothing),
// and the one-request service frees one only with its WR, on whose cycle
// it returns. It never serves a read while the write queue is full: a
// full queue is at or above the high watermark, so the drain has
// priority. So a call can skip a flush only when a writeback is left
// pending with room in the queue, which prefetch-buffer hits cause by
// queueing several without stepping DRAM; then this call steps a single
// cycle. The call boundaries inside a service (after its wake, and
// between its RD and the data return) and after an idle jump's
// power-down entry are ones where this flush has nothing to do: a
// service or an idle jump runs only after the flush emptied the
// pending list or with the write queue full, and a RD frees no write
// room.
func (r *Runner) stepDRAMTo(limit uint64) {
	if len(r.pendingWB) > 0 && r.ctl.CanEnqueueWrite() {
		addr := r.pendingWB[len(r.pendingWB)-1]
		r.pendingWB = r.pendingWB[:len(r.pendingWB)-1]
		if err := r.ctl.EnqueueWrite(addr, 0); err != nil {
			// invariant: CanEnqueueWrite was checked.
			panic(err)
		}
		if len(r.pendingWB) > 0 && r.ctl.CanEnqueueWrite() {
			limit = r.ch.Now() + 1
		}
	}
	r.ctl.StepOrJump(limit)
}

// stepDRAM advances the memory system exactly one DRAM cycle.
func (r *Runner) stepDRAM() { r.stepDRAMTo(r.ch.Now() + 1) }

// driftDRAM advances toward the next memory-system edge — a read
// completion, refresh slot, power-down entry or the next cycle a queued
// request can issue — with no CPU-side bound. Used while the core is
// stalled on a demand read: the controller never jumps past the
// completion, because every jump is capped by the earliest in-flight
// DoneAt and no call goes on past a Step that fired a callback.
func (r *Runner) driftDRAM() { r.stepDRAMTo(^uint64(0)) }

// syncDRAM advances DRAM until its clock covers the CPU clock.
func (r *Runner) syncDRAM() {
	ratio := r.ratio()
	if r.ch.Now()*ratio >= r.cpu.Now() {
		// Covered already, as on doRead's call right after the gap's.
		return
	}
	// First DRAM cycle whose CPU-time is >= the core's clock; quiescent
	// stretches inside a gap are covered by controller jumps.
	target := (r.cpu.Now() + ratio - 1) / ratio
	for r.ch.Now() < target {
		r.stepDRAMTo(target)
	}
}

// updateRefreshShift propagates the scheme's SMD refresh divider.
func (r *Runner) updateRefreshShift() {
	if s := r.sch.refreshShift(); s != r.curShift {
		r.curShift = s
		r.ctl.SetRefreshShift(s)
	}
}

// Run executes the configured slice and computes the result.
func (r *Runner) Run() (Result, error) {
	if err := r.RunActive(r.cfg.Instructions); err != nil {
		return Result{}, err
	}
	return r.result(r.checkpoints), nil
}

// step executes one trace record: the gap's instructions, then the read
// or write, then telemetry and checkpoints. RunActive and RunBenchmarks
// both drive the runner through it.
func (r *Runner) step(rec trace.Record) error {
	r.segmentBudget -= int64(rec.Gap) + 1
	if rec.Gap > 0 {
		r.cpu.Execute(uint64(rec.Gap))
		r.syncDRAM()
	}
	if rec.Op == trace.OpWrite {
		if err := r.sch.onWrite(rec.LineAddr, r.cpu.Now()); err != nil {
			return err
		}
		for !r.ctl.CanEnqueueWrite() {
			r.stepDRAM()
		}
		if err := r.ctl.EnqueueWrite(rec.LineAddr, 0); err != nil {
			// invariant: space was ensured.
			panic(err)
		}
		r.cpu.Execute(1)
	} else {
		extra, wb, err := r.sch.onRead(rec.LineAddr, r.cpu.Now())
		if err != nil {
			return err
		}
		if wb {
			r.pendingWB = append(r.pendingWB, rec.LineAddr)
		}
		r.updateRefreshShift()
		if err := r.doRead(rec.LineAddr, extra); err != nil {
			return err
		}
		r.cpu.Execute(1)
	}
	if r.obs != nil {
		r.obs.Tick(r.cpu.Now())
		r.obsTickN++
		// The segment's last record publishes in endActive, after any
		// budget overrun has been added to the progress total.
		if r.obsTickN&1023 == 0 && r.segmentBudget > 0 {
			r.publishObs()
		}
	}
	if checkAt := r.cfg.CheckpointEvery; checkAt > 0 && int64(r.cpu.Retired()) >= checkAt*int64(len(r.checkpoints)+1) {
		r.checkpoints = append(r.checkpoints, Checkpoint{
			Instructions: r.cpu.Retired(),
			IPC:          r.cpu.IPC(),
		})
	}
	return nil
}

// drain completes outstanding traffic at the end of an active segment so
// energy accounting is complete, then publishes telemetry.
func (r *Runner) drain() error {
	for len(r.pendingWB) > 0 {
		r.stepDRAM()
	}
	if _, err := r.ctl.DrainAll(10_000_000); err != nil {
		return err
	}
	// A final record that overran the budget raises the progress total
	// by the excess before its instructions are published as done, so
	// done never exceeds total.
	if r.segmentBudget < 0 {
		r.prog.AddTotal(uint64(-r.segmentBudget))
	}
	r.publishObs()
	return nil
}

func (r *Runner) result(checkpoints []Checkpoint) Result {
	r.publishObs()
	if r.runSpan != nil {
		r.runSpan.End(r.cpu.Now())
		r.runSpan = nil
	}
	ds := r.ch.Stats()
	cs := r.ctl.Stats()
	counts := r.sch.counts()

	// For phase patterns, performance metrics cover active time only;
	// the idle jumps would otherwise dilute IPC into meaninglessness.
	cycles := r.cpu.Now()
	if r.activeCycles > 0 {
		cycles = r.activeCycles
	}
	res := Result{
		Benchmark:      r.prof.Name,
		Scheme:         r.sch.kind(),
		Instructions:   r.cpu.Retired(),
		Cycles:         cycles,
		MemStallCycles: r.cpu.MemStallCycles(),
		DRAM:           ds,
		Ctrl:           cs,
		Energy:         r.calc.Energy(ds),
		Checkpoints:    checkpoints,
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.Instructions) / float64(res.Cycles)
	}
	if res.Instructions > 0 {
		res.MPKI = float64(cs.ReadsEnqueued) / float64(res.Instructions) * 1000
	}
	res.AvgReadLatencyCPU = cs.AvgReadLatency() * float64(r.ratio())
	res.PrefetchHits = r.prefHits
	if m := r.sch.mecc(); m != nil {
		s := m.Stats()
		res.MECC = &s
	}
	weak, strong := ecc.SECDEDCost(), ecc.BCHCost(6)
	res.ECCEnergyJ = (float64(counts.weakDecodes)*weak.DecodeEnergyPJ +
		float64(counts.strongDecodes)*strong.DecodeEnergyPJ +
		float64(counts.weakEncodes)*weak.EncodeEnergyPJ +
		float64(counts.strongEncodes)*strong.EncodeEnergyPJ) * 1e-12
	res.ActiveTimeSec = float64(res.Cycles) / float64(r.cfg.DRAM.CPUClockHz)
	if res.ActiveTimeSec > 0 {
		res.ActivePowerW = res.TotalEnergyJ() / res.ActiveTimeSec
	}
	res.EDP = res.TotalEnergyJ() * res.ActiveTimeSec
	r.checkResult(&res)
	return res
}

// ErrStreamMismatch reports RunBenchmarks configs that would not replay
// the same record stream.
var ErrStreamMismatch = errors.New("sim: configs replay different record streams")

// StreamKey identifies the record stream a run consumes: the generator's
// inputs (profile, memory size in lines, seed) and the instruction budget
// at which the run stops reading. Runs with equal keys consume the same
// records, whatever their scheme, timing or policy.
type StreamKey struct {
	Profile      workload.Profile
	Lines        uint64
	Seed         int64
	Instructions int64
}

// Stream returns the key of the stream a run of prof under c consumes.
func (c Config) Stream(prof workload.Profile) StreamKey {
	return StreamKey{Profile: prof, Lines: c.DRAM.TotalLines(), Seed: c.Seed, Instructions: c.Instructions}
}

// streamChunk is how many records RunBenchmarks generates at a time.
const streamChunk = 1024

// RunBenchmark is the one-call entry point: simulate one profile under
// one configuration.
func RunBenchmark(prof workload.Profile, cfg Config) (Result, error) {
	res, err := RunBenchmarks(prof, []Config{cfg})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// RunBenchmarks simulates one profile under several configurations with
// the same Stream key, so every run consumes the same records. The
// stream is generated once, streamChunk records at a time into one
// reused buffer, and each chunk is stepped through every config's runner
// in turn. Results are in cfgs order and equal separate RunBenchmark
// calls. Configs whose keys differ fail with ErrStreamMismatch.
func RunBenchmarks(prof workload.Profile, cfgs []Config) ([]Result, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	c0 := cfgs[0]
	for _, c := range cfgs[1:] {
		if c.Stream(prof) != c0.Stream(prof) {
			return nil, fmt.Errorf("%w: %d lines, seed %d, %d instructions against %d lines, seed %d, %d instructions",
				ErrStreamMismatch, c.DRAM.TotalLines(), c.Seed, c.Instructions,
				c0.DRAM.TotalLines(), c0.Seed, c0.Instructions)
		}
	}
	// The first runner owns the generator; the others never read a
	// source of their own.
	runners := make([]*Runner, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if i == 0 {
			runners[i], err = NewRunner(prof, cfg)
		} else {
			runners[i], err = newRunner(prof, cfg, func(*Runner) (trace.Source, error) { return nil, nil })
		}
		if err != nil {
			return nil, err
		}
	}
	segs := make([]activeSegment, len(runners))
	for i, r := range runners {
		var err error
		if segs[i], err = r.beginActive(c0.Instructions); err != nil {
			return nil, err
		}
	}
	// Each runner reads until its budget is spent, so the bounded stream
	// is exactly what every one of them consumes.
	src := workload.NewBounded(runners[0].src, c0.Instructions)
	buf := make([]trace.Record, 0, streamChunk)
	for {
		buf = buf[:0]
		for len(buf) < streamChunk {
			rec, ok := src.Next()
			if !ok {
				break
			}
			buf = append(buf, rec)
		}
		if len(buf) == 0 {
			break
		}
		for _, r := range runners {
			for _, rec := range buf {
				if err := r.step(rec); err != nil {
					// Close every segment without draining; endActive
					// hands back the error it is given.
					for j, q := range runners {
						_ = q.endActive(segs[j], err)
					}
					return nil, err
				}
			}
		}
	}
	out := make([]Result, len(runners))
	for i, r := range runners {
		if err := r.endActive(segs[i], nil); err != nil {
			return nil, err
		}
		out[i] = r.result(r.checkpoints)
		r.detachObserver()
	}
	return out, nil
}
