// Package memctrl implements the memory controller: read and write queues,
// FR-FCFS open-page scheduling, write-drain watermarks, distributed
// refresh, and the aggressive power-down policy of the paper's baseline
// ("the scheduler issues a power-down command whenever it is possible",
// Section IV-A). It owns all policy; legality is enforced by the dram
// package.
package memctrl

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/checker"
	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Errors returned by the controller.
var (
	ErrQueueFull = errors.New("memctrl: queue full")
	ErrBadConfig = errors.New("memctrl: invalid configuration")
)

// PagePolicy selects the row-buffer management policy.
type PagePolicy int

// Page policies.
const (
	// OpenPage leaves rows open after column accesses, betting on row
	// locality (the default; zero value).
	OpenPage PagePolicy = iota
	// ClosedPage precharges a bank as soon as no queued request hits
	// its open row, betting against locality.
	ClosedPage
)

// String renders the policy name.
func (p PagePolicy) String() string {
	switch p {
	case OpenPage:
		return "open-page"
	case ClosedPage:
		return "closed-page"
	default:
		return fmt.Sprintf("PagePolicy(%d)", int(p))
	}
}

// Config holds controller policy parameters.
type Config struct {
	// ReadQueueCap and WriteQueueCap bound the queues (USIMM defaults).
	ReadQueueCap, WriteQueueCap int
	// WriteHighWater starts a write drain; WriteLowWater ends it.
	WriteHighWater, WriteLowWater int
	// PowerDownIdle is the number of idle DRAM cycles after which the
	// controller powers the rank down (aggressive = small).
	PowerDownIdle int
	// RefreshEnabled turns distributed auto-refresh on.
	RefreshEnabled bool
	// PerBankRefresh uses LPDDR per-bank refresh (REFpb) instead of
	// all-bank REF: each bank refreshes tREFI/banks apart, blocking only
	// itself for the shorter tRFCpb.
	PerBankRefresh bool
	// MaxPostponedRefresh is how many tREFI intervals refresh may be
	// deferred under load before it becomes urgent (JEDEC allows 8).
	MaxPostponedRefresh int
	// PagePolicy selects open- vs closed-page row management.
	PagePolicy PagePolicy
	// StarvationLimit caps how long (DRAM cycles) the oldest request may
	// wait while younger row hits stream past it; beyond the limit the
	// scheduler degrades to oldest-first until it is served. 0 disables.
	StarvationLimit int
	// FCFS disables the row-hit-first pass of FR-FCFS: requests issue
	// strictly oldest-first (the scheduling-championship baseline).
	FCFS bool
	// LegacyStepping disables the event-wheel fast-forward: StepOrJump
	// degrades to plain per-cycle Step. Kept as the reference path for
	// the wheel-vs-legacy differential property tests.
	LegacyStepping bool
}

// DefaultConfig returns the baseline controller policy.
func DefaultConfig() Config {
	return Config{
		ReadQueueCap:        32,
		WriteQueueCap:       32,
		WriteHighWater:      20,
		WriteLowWater:       8,
		PowerDownIdle:       4,
		RefreshEnabled:      true,
		MaxPostponedRefresh: 8,
		StarvationLimit:     500,
	}
}

// Validate checks policy consistency.
func (c Config) Validate() error {
	switch {
	case c.ReadQueueCap <= 0 || c.WriteQueueCap <= 0:
		return fmt.Errorf("%w: queue caps", ErrBadConfig)
	case c.WriteHighWater <= c.WriteLowWater || c.WriteHighWater > c.WriteQueueCap:
		return fmt.Errorf("%w: watermarks %d/%d", ErrBadConfig, c.WriteLowWater, c.WriteHighWater)
	case c.PowerDownIdle < 0 || c.MaxPostponedRefresh < 0 || c.StarvationLimit < 0:
		return fmt.Errorf("%w: negative policy value", ErrBadConfig)
	}
	return nil
}

// Request is one memory transaction.
type Request struct {
	// LineAddr is the cache-line address.
	LineAddr uint64
	// IsWrite distinguishes writebacks from demand reads.
	IsWrite bool
	// EnqueuedAt is the DRAM cycle of arrival.
	EnqueuedAt uint64
	// DoneAt is the DRAM cycle the data burst completed (reads only,
	// valid in the completion callback).
	DoneAt uint64
	// Tag carries caller context through to the completion callback.
	Tag uint64

	coord dram.Coord
	// missed records that this request drove a row activation, for
	// row-buffer locality accounting.
	missed bool
}

// Coord returns the request's decoded bank/row/column.
func (r *Request) Coord() dram.Coord { return r.coord }

// latencyBounds are the upper edges (DRAM cycles) of the read-latency
// histogram buckets; the last bucket is unbounded.
var latencyBounds = [...]uint64{10, 15, 20, 30, 50, 100, 200}

// Stats accumulates controller-level metrics.
type Stats struct {
	// ReadsEnqueued, WritesEnqueued count accepted requests.
	ReadsEnqueued  uint64 `json:"reads_enqueued"`
	WritesEnqueued uint64 `json:"writes_enqueued"`
	// ReadsDone counts completed reads.
	ReadsDone uint64 `json:"reads_done"`
	// TotalReadLatency sums read queuing+service latency in DRAM cycles.
	TotalReadLatency uint64 `json:"total_read_latency"`
	// RefreshesIssued counts REF commands (also visible in dram.Stats).
	RefreshesIssued uint64 `json:"refreshes_issued"`
	// RefreshesDropped counts refreshes swallowed by injected faults.
	RefreshesDropped uint64 `json:"refreshes_dropped,omitempty"`
	// PowerDownEntries counts PDE transitions.
	PowerDownEntries uint64 `json:"power_down_entries"`
	// WriteDrains counts drain-mode activations.
	WriteDrains uint64 `json:"write_drains"`
	// LatencyHist buckets read latencies at the latencyBounds edges
	// (last bucket = beyond the largest bound).
	LatencyHist [len(latencyBounds) + 1]uint64 `json:"latency_hist"`
}

// LatencyPercentile returns an upper bound on the given read-latency
// percentile (0 < p <= 1) from the histogram, in DRAM cycles. The last
// bucket returns the largest bound (the histogram cannot resolve its
// interior).
func (s Stats) LatencyPercentile(p float64) uint64 {
	target := uint64(float64(s.ReadsDone) * p)
	var cum uint64
	for i, n := range s.LatencyHist {
		cum += n
		if cum >= target {
			if i < len(latencyBounds) {
				return latencyBounds[i]
			}
			break
		}
	}
	return latencyBounds[len(latencyBounds)-1] + 1
}

// AvgReadLatency returns the mean read latency in DRAM cycles.
func (s Stats) AvgReadLatency() float64 {
	if s.ReadsDone == 0 {
		return 0
	}
	return float64(s.TotalReadLatency) / float64(s.ReadsDone)
}

// Controller schedules requests onto one DRAM channel. Not safe for
// concurrent use.
type Controller struct {
	ch  *dram.Channel
	cfg Config

	readQ    []*Request
	writeQ   []*Request
	inflight []*Request

	draining      bool
	nextRefreshAt uint64
	refreshShift  int
	refreshBank   int
	idleCycles    int

	// Derived channel geometry, cached at construction: the Config
	// value-receiver accessors copy the whole struct, which is too
	// expensive for per-cycle use.
	banks int
	trefi uint64
	// earliestDone caches the minimum DoneAt over inflight reads
	// (^uint64(0) when none), so the per-cycle completion scan skips
	// until a completion is actually due.
	earliestDone uint64
	// seenBank is issueBest's per-bank dedup scratch, reused across
	// cycles so the scheduler scan stays off the heap.
	seenBank []bool
	// freelist recycles Request objects. Requests die in exactly three
	// places (read completion, write issue, RAW forwarding), none of
	// which retain the pointer past the onReadDone callback, so reuse
	// is safe and keeps the enqueue path allocation-free.
	freelist []*Request

	// wheel tracks the controller's pending timing edges (next refresh
	// slot, earliest in-flight completion, power-down entry) for the
	// tickless fast path; see StepOrJump.
	wheel *sched.Wheel

	onReadDone func(*Request)
	stats      Stats

	// Invariant checker and fault injection (nil-safe when detached).
	chk        *checker.RefreshTracker
	faults     *checker.RefreshFaults
	refreshSeq uint64

	// Telemetry (nil-safe no-ops when detached). Counters with a Stats
	// twin are published from Stats by the simulation runner; read
	// latencies are buffered in hLatency and drained by PublishObs.
	obs      *obs.Recorder
	hLatency *obs.LocalHistogram
	gShift   *obs.Gauge
	// cTier splits refreshes by the divider in force when they issued
	// (memctrl_tier_refreshes_total{shift="N"}); the last cell absorbs
	// any deeper divider.
	cTier [refreshTiers]*obs.Counter
	// Wheel/queue visibility, published on demand by PublishObs rather
	// than from the scheduling hot paths.
	cWheelSched   *obs.Counter
	cWheelMature  *obs.Counter
	cWheelCascade *obs.Counter
	gWheelDepth   *obs.Gauge
	gReadDepth    *obs.Gauge
	gWriteDepth   *obs.Gauge
	lastWheel     sched.Stats
}

// refreshTiers is the number of per-shift refresh counter cells
// (shift 0..refreshTiers-2, deeper dividers clamp into the last).
const refreshTiers = 9

// New builds a controller over a channel. onReadDone is invoked (possibly
// zero or multiple times per Step) as read data bursts complete; it may be
// nil. The *Request passed to the callback is recycled once the callback
// returns and must not be retained — copy any fields needed later.
func New(ch *dram.Channel, cfg Config, onReadDone func(*Request)) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		ch:         ch,
		cfg:        cfg,
		readQ:      make([]*Request, 0, cfg.ReadQueueCap),
		writeQ:     make([]*Request, 0, cfg.WriteQueueCap),
		onReadDone: onReadDone,
		wheel:      sched.NewWheel(ch.Now(), numEvents),
		banks:      ch.Config().TotalBanks(),
		trefi:      uint64(ch.Config().Timing.TREFI),
	}
	c.seenBank = make([]bool, c.banks)
	c.earliestDone = ^uint64(0)
	// First slot is one effective interval out: tREFI/banks under REFpb,
	// not a full tREFI — otherwise per-bank mode starts (banks-1) slots
	// behind and never recovers the deficit.
	c.nextRefreshAt = c.refreshInterval()
	return c, nil
}

// Channel returns the underlying DRAM channel.
func (c *Controller) Channel() *dram.Channel { return c.ch }

// SetObserver attaches a telemetry recorder (nil detaches): per-tier
// refresh counters, the read-latency histogram, wheel/queue depth
// gauges, and refresh events.
func (c *Controller) SetObserver(r *obs.Recorder) {
	c.obs = r
	if r == nil {
		c.hLatency, c.gShift = nil, nil
		c.cTier = [refreshTiers]*obs.Counter{}
		c.cWheelSched, c.cWheelMature, c.cWheelCascade = nil, nil, nil
		c.gWheelDepth, c.gReadDepth, c.gWriteDepth = nil, nil, nil
		return
	}
	c.hLatency = r.Histogram("memctrl_read_latency_dram_cycles").Local()
	c.gShift = r.Gauge("memctrl_refresh_shift_bits")
	reg := r.Registry()
	reg.SetHelp("memctrl_tier_refreshes_total",
		"Refresh operations by the divider shift in force when they issued.")
	for i := range c.cTier {
		c.cTier[i] = r.Counter(obs.SeriesName("memctrl_tier_refreshes_total",
			"shift", strconv.Itoa(i)))
	}
	reg.SetHelp("sched_wheel_depth", "Pending deadlines on the controller's timing wheel.")
	c.cWheelSched = r.Counter("sched_wheel_scheduled_total")
	c.cWheelMature = r.Counter("sched_wheel_matured_total")
	c.cWheelCascade = r.Counter("sched_wheel_cascades_total")
	c.gWheelDepth = r.Gauge("sched_wheel_depth")
	c.gReadDepth = r.Gauge("memctrl_read_queue_depth")
	c.gWriteDepth = r.Gauge("memctrl_write_queue_depth")
	c.lastWheel = c.wheel.Stats()
}

// PublishObs pushes the controller's sampled-state metrics — timing
// wheel operation deltas, wheel/queue depths, and the read latencies
// buffered since the last call — to the attached recorder. The wheel
// and the latency buffer are plain memory so the hot paths stay
// atomic-free; callers (the sim loop, a serving tick) invoke this at
// whatever cadence live scraping needs, and once more at the end so
// the totals are exact.
func (c *Controller) PublishObs() {
	if c.obs == nil {
		return
	}
	c.hLatency.Drain()
	s := c.wheel.Stats()
	c.cWheelSched.Add(monotonicDelta(s.Scheduled, c.lastWheel.Scheduled))
	c.cWheelMature.Add(monotonicDelta(s.Matured, c.lastWheel.Matured))
	c.cWheelCascade.Add(monotonicDelta(s.Cascaded, c.lastWheel.Cascaded))
	c.lastWheel = s
	c.gWheelDepth.Set(float64(c.wheel.Len()))
	c.gReadDepth.Set(float64(len(c.readQ)))
	c.gWriteDepth.Set(float64(len(c.writeQ)))
}

// monotonicDelta returns cur-prev for a counter expected to only grow,
// clamping to 0 if it ever moved backwards (a swapped or reset wheel)
// instead of wrapping and poisoning a cumulative metric with ~2^64.
func monotonicDelta(cur, prev uint64) uint64 {
	if cur < prev {
		return 0
	}
	return cur - prev
}

// SetChecker attaches a refresh-accounting tracker (nil detaches). The
// tracker is told about every issued refresh and every rate change so it
// can compare issue counts against the configured period.
func (c *Controller) SetChecker(t *checker.RefreshTracker) { c.chk = t }

// SetRefreshFaults attaches an injected refresh-fault schedule (nil
// detaches): due refreshes may be silently dropped or postponed at the
// scheduled issue sequence numbers. Dropped refreshes are deliberately
// NOT reported to the checker, so a sufficient burst of drops trips the
// refresh-ratio invariant.
func (c *Controller) SetRefreshFaults(f *checker.RefreshFaults) {
	c.faults = f
}

// SetRefreshShift divides the auto-refresh rate by 2^shift — the MECC
// refresh-rate modulation applied during active mode when SMD keeps the
// memory fully ECC-6 protected (refresh interval tREFI << shift).
func (c *Controller) SetRefreshShift(shift int) {
	if shift < 0 {
		shift = 0
	}
	if shift != c.refreshShift {
		c.chk.OnShift(c.ch.Now(), shift)
		if c.obs != nil {
			c.gShift.Set(float64(shift))
			if c.obs.Tracing(obs.KindRefreshRate) {
				c.obs.Emit(obs.Event{T: c.ch.Now(), Kind: obs.KindRefreshRate, Shift: shift})
			}
		}
	}
	c.refreshShift = shift
	// When the interval shrinks (e.g. SMD reverts slow refresh to the
	// JEDEC rate), the pending slot was scheduled under the old, longer
	// interval; pull it in so the new rate takes effect now rather than
	// up to 2^oldShift intervals later.
	if limit := c.ch.Now() + c.refreshInterval(); c.nextRefreshAt > limit {
		c.nextRefreshAt = limit
	}
}

// consumeRefreshFault consults the injected fault schedule for the
// refresh about to issue. It returns true when the fault consumed the
// refresh (drop), in which case the schedule already advanced.
func (c *Controller) consumeRefreshFault() bool {
	f, ok := c.faults.Next(c.refreshSeq)
	if !ok {
		return false
	}
	switch f.Kind {
	case checker.DropRefresh:
		// Swallow the refresh: the schedule moves on as if it issued,
		// but no REF reaches the device and the checker is not told.
		c.refreshSeq++
		c.stats.RefreshesDropped++
		c.nextRefreshAt += c.refreshInterval()
		return true
	case checker.DelayRefresh:
		c.nextRefreshAt += f.DelayCycles
		return true
	}
	return false
}

// ResyncRefresh restarts the distributed-refresh schedule from the
// current cycle. The system layer calls this on self-refresh exit: the
// device maintained the array itself while asleep, so the controller
// must not "catch up" on intervals that elapsed during the idle period —
// without the resync a multi-second idle is followed by a storm of
// millions of back-to-back REF commands.
func (c *Controller) ResyncRefresh() {
	c.nextRefreshAt = c.ch.Now() + c.refreshInterval()
}

// refreshInterval returns the effective refresh interval in DRAM cycles:
// per-bank refresh pulses come banks-times as often, each covering one
// bank.
//
//meccvet:hotpath
func (c *Controller) refreshInterval() uint64 {
	interval := c.trefi << c.refreshShift
	if c.cfg.PerBankRefresh {
		interval /= uint64(c.banks)
		if interval == 0 {
			interval = 1
		}
	}
	return interval
}

// Stats returns a copy of controller statistics.
func (c *Controller) Stats() Stats { return c.stats }

// CanEnqueueRead reports whether the read queue has room.
func (c *Controller) CanEnqueueRead() bool { return len(c.readQ) < c.cfg.ReadQueueCap }

// CanEnqueueWrite reports whether the write queue has room.
func (c *Controller) CanEnqueueWrite() bool { return len(c.writeQ) < c.cfg.WriteQueueCap }

// EnqueueRead adds a demand read. The Tag is passed through to the
// completion callback.
func (c *Controller) EnqueueRead(lineAddr, tag uint64) error {
	if !c.CanEnqueueRead() {
		return fmt.Errorf("%w: read queue", ErrQueueFull)
	}
	// Read-after-write forwarding: a read that hits a queued write is
	// served from the write queue without touching DRAM.
	for _, w := range c.writeQ {
		if w.LineAddr == lineAddr {
			r := c.newRequest()
			r.LineAddr = lineAddr
			r.EnqueuedAt = c.ch.Now()
			r.DoneAt = c.ch.Now()
			r.Tag = tag
			c.stats.ReadsEnqueued++
			c.stats.ReadsDone++
			c.hLatency.Observe(0)
			if c.onReadDone != nil {
				c.onReadDone(r)
			}
			c.freeRequest(r)
			return nil
		}
	}
	r := c.newRequest()
	r.LineAddr = lineAddr
	r.EnqueuedAt = c.ch.Now()
	r.Tag = tag
	r.coord = c.ch.Decode(lineAddr)
	c.readQ = append(c.readQ, r)
	c.stats.ReadsEnqueued++
	return nil
}

// EnqueueWrite adds a writeback.
func (c *Controller) EnqueueWrite(lineAddr, tag uint64) error {
	if !c.CanEnqueueWrite() {
		return fmt.Errorf("%w: write queue", ErrQueueFull)
	}
	r := c.newRequest()
	r.LineAddr = lineAddr
	r.IsWrite = true
	r.EnqueuedAt = c.ch.Now()
	r.Tag = tag
	r.coord = c.ch.Decode(lineAddr)
	c.writeQ = append(c.writeQ, r)
	c.stats.WritesEnqueued++
	return nil
}

// Pending returns the number of requests queued or in flight.
func (c *Controller) Pending() int {
	return len(c.readQ) + len(c.writeQ) + len(c.inflight)
}

// Step advances the controller and channel by one DRAM cycle: completes
// reads, manages refresh and power state, and issues at most one command.
func (c *Controller) Step() {
	c.completeReads()

	hasWork := len(c.readQ) > 0 || len(c.writeQ) > 0 || c.refreshDue()

	switch c.ch.State() {
	case dram.StatePrechargePD, dram.StateActivePD:
		if hasWork {
			// Wake the rank; commands resume after tXP.
			if err := c.ch.ExitPowerDown(); err != nil {
				// invariant: state was checked.
				panic(err)
			}
		}
		c.ch.Tick()
		return
	case dram.StateSelfRefresh:
		// Self refresh is entered/exited by the system layer, never
		// autonomously here.
		c.ch.Tick()
		return
	}

	if !hasWork && len(c.inflight) == 0 {
		// Closed-page: drain open rows before powering down.
		if c.cfg.PagePolicy == ClosedPage && c.closeIdleRow() {
			c.ch.Tick()
			return
		}
		c.idleCycles++
		if c.cfg.PowerDownIdle > 0 && c.idleCycles >= c.cfg.PowerDownIdle {
			if err := c.ch.EnterPowerDown(); err == nil {
				c.stats.PowerDownEntries++
			}
		}
		c.ch.Tick()
		return
	}
	c.idleCycles = 0

	if !c.issueRefreshIfNeeded() {
		c.issueBest()
	}
	c.ch.Tick()
}

// Event ids on the controller's timing wheel.
const (
	evRefresh   = int32(0) // next distributed-refresh slot
	evInflight  = int32(1) // earliest in-flight read completion
	evPowerDown = int32(2) // cycle at which the next Step enters power-down
	numEvents   = 3
)

// maxJumpSpan bounds a single fast-forward (2^20 DRAM cycles, ~1.3 ms at
// LPDDR rates): long quiescent stretches take a handful of jumps instead
// of one unbounded leap, keeping wheel placement in the cheap low levels.
const maxJumpSpan = uint64(1) << 20

// StepOrJump advances the controller by one cycle — or, when the next
// timing edge is provably further away, jumps straight to it (never past
// limit). The per-cycle path is bit-exact with Step; the jump path is
// taken only in quiescent stretches where every skipped Step would have
// been a no-op Tick, so queues, refresh schedule, power-state residency
// and statistics all evolve identically to per-cycle stepping (the
// wheel-vs-legacy differential tests pin this). With Config.
// LegacyStepping set it always takes the per-cycle path.
func (c *Controller) StepOrJump(limit uint64) {
	if !c.cfg.LegacyStepping && (c.tryJump(limit) || c.tryJumpBusy(limit)) {
		return
	}
	c.Step()
}

// tryJumpBusy fast-forwards through a stretch where requests are queued
// but none can issue yet: the cycles between an enqueue and its ACT,
// between an ACT and its column access (tRCD), and the bus/turnaround
// waits. Every skipped Step would have been completeReads (no
// completion due), a refresh no-op, an issueBest that issues nothing,
// and a Tick — so it jumps to the earliest cycle at which the scheduler
// could act:
//   - the earliest per-request issue edge over the effective active
//     queue, mirroring issueBest's FR-FCFS passes (column access for
//     row hits, ACT for closed banks, PRE for conflicts — suppressed,
//     like pass 2, while another queued request still hits the row);
//   - the earliest in-flight completion;
//   - the refresh machine's next action: the next slot under per-bank
//     refresh, the urgency deadline under postponed all-bank refresh
//     (a due-but-postponed refresh is a per-cycle no-op while the
//     queues stay busy, so due-ness alone does not stop the jump);
//   - the cycle the anti-starvation limit would trip.
//
// Queue contents are static over the stretch — enqueues only happen
// between StepOrJump calls, completions are capped by the completion
// edge, and nothing issues before the jump lands — so the scheduler's
// queue selection (draining state included) cannot change mid-stretch.
// Conservatively-early edges are harmless: landing early just re-runs
// the per-cycle path. Closed-page never busy-jumps (idle slots retire
// open rows), and refresh fault injection pins per-cycle stepping.
func (c *Controller) tryJumpBusy(limit uint64) bool {
	if len(c.readQ) == 0 && len(c.writeQ) == 0 {
		return false
	}
	if c.cfg.PagePolicy != OpenPage || c.faults != nil {
		return false
	}
	if c.ch.State() != dram.StateActiveStandby {
		return false
	}
	now := c.ch.Now()
	if now+1 >= limit {
		return false
	}
	edge := limit
	if c.cfg.RefreshEnabled {
		if c.cfg.PerBankRefresh {
			// Per-bank refresh issues REFpb opportunistically to idle
			// banks even under load: never skip past a due slot.
			if c.refreshDue() {
				return false
			}
			edge = minU64(edge, c.nextRefreshAt)
		} else {
			if c.refreshUrgent() {
				return false
			}
			edge = minU64(edge, c.nextRefreshAt+
				uint64(c.cfg.MaxPostponedRefresh)*c.refreshInterval())
		}
	}
	for _, r := range c.inflight {
		if r.DoneAt <= now {
			return false // completion callback due this cycle
		}
		edge = minU64(edge, r.DoneAt)
	}

	// Replicate activeQueue's selection without mutating the draining
	// flag (the real transition happens at the landing Step).
	q := c.readQ
	draining := c.draining && len(c.writeQ) > c.cfg.WriteLowWater
	switch {
	case draining || len(c.writeQ) >= c.cfg.WriteHighWater:
		q = c.writeQ
	case len(c.readQ) > 0:
	case len(c.inflight) == 0 && len(c.writeQ) > 0:
		q = c.writeQ
	default:
		q = nil // parked writes below the watermarks: only completions/refresh matter
	}
	if c.cfg.FCFS && len(q) > 1 {
		q = q[:1]
	}
	if lim := c.cfg.StarvationLimit; lim > 0 && len(q) > 1 {
		if now > q[0].EnqueuedAt+uint64(lim) {
			q = q[:1]
		} else {
			// The scheduler's behavior changes when the limit trips.
			edge = minU64(edge, q[0].EnqueuedAt+uint64(lim)+1)
		}
	}
	for _, r := range q {
		b := r.coord.Bank
		switch {
		case !c.ch.AnyRowOpen(b):
			edge = minU64(edge, c.ch.EarliestACT(b))
		case c.ch.OpenRow(b) == r.coord.Row:
			if r.IsWrite {
				edge = minU64(edge, c.ch.EarliestWR(b))
			} else {
				edge = minU64(edge, c.ch.EarliestRD(b))
			}
		case hitsOpenRow(q, c.ch.OpenRow(b), b):
			// Pass 2 defers this bank's PRE while a queued request
			// still hits the open row; that request has its own edge.
		default:
			edge = minU64(edge, c.ch.EarliestPRE(b))
		}
	}

	if span := now + maxJumpSpan; edge > span {
		edge = span
	}
	if edge <= now+1 {
		return false
	}
	if err := c.ch.SkipTo(edge); err != nil {
		// invariant: the state was checked above.
		panic(err)
	}
	c.wheel.Advance(edge)
	// Every skipped cycle had queued work, so each reset the idle
	// counter.
	c.idleCycles = 0
	return true
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// tryJump fast-forwards to the next timing edge when the current cycle
// provably cannot issue a command or change state. It returns false —
// punting back to the cycle-exact Step — whenever anything is due now
// or within one cycle.
//
// The quiescence argument, case by case:
//   - queues must be empty: queued work can issue (or alter draining /
//     starvation state) on any cycle;
//   - active standby with in-flight reads: per-cycle Steps only reset
//     idleCycles and Tick until the earliest DoneAt, so the edge is
//     min(DoneAt);
//   - active standby, idle: per-cycle Steps increment idleCycles and
//     Tick; the next edges are the refresh slot and the power-down
//     entry cycle now+(PowerDownIdle-idleCycles)-1 (that Step both
//     enters and accrues power-down, so the jump stops one short and
//     replays it cycle-exactly);
//   - power-down states: Steps only Tick until work appears, and with
//     empty queues the only work source is the refresh slot;
//   - closed-page requires all banks precharged, since otherwise idle
//     Steps spend slots retiring open rows;
//   - self-refresh (and any other state) never jumps.
func (c *Controller) tryJump(limit uint64) bool {
	if len(c.readQ) > 0 || len(c.writeQ) > 0 || c.refreshDue() {
		return false
	}
	now := c.ch.Now()
	if now+1 >= limit {
		return false
	}
	state := c.ch.State()
	switch state {
	case dram.StateActiveStandby, dram.StatePrechargePD, dram.StateActivePD:
	default:
		return false
	}
	if c.cfg.PagePolicy == ClosedPage && !c.ch.AllPrecharged() {
		return false
	}

	// Publish the pending edges to the wheel. The wheel's clock is only
	// advanced on successful jumps: placement invariants are all
	// relative to the wheel's own time, re-scheduling an unchanged
	// deadline is a no-op, and the refusal checks above (refresh due,
	// completion due) already catch every matured edge, so running
	// "behind" the channel clock is safe and skips a per-attempt sweep.
	if c.cfg.RefreshEnabled {
		c.wheel.Schedule(evRefresh, c.nextRefreshAt)
	} else {
		c.wheel.Cancel(evRefresh)
	}
	if len(c.inflight) > 0 {
		minDone := c.inflight[0].DoneAt
		for _, r := range c.inflight[1:] {
			if r.DoneAt < minDone {
				minDone = r.DoneAt
			}
		}
		if minDone <= now {
			// A completion callback is due this cycle; Step must fire it.
			c.wheel.Cancel(evInflight)
			c.wheel.Cancel(evPowerDown)
			return false
		}
		c.wheel.Schedule(evInflight, minDone)
	} else {
		c.wheel.Cancel(evInflight)
	}
	if state == dram.StateActiveStandby && len(c.inflight) == 0 && c.cfg.PowerDownIdle > 0 {
		need := c.cfg.PowerDownIdle - c.idleCycles
		if need <= 2 {
			// Power-down entry within a cycle or two: replay per-cycle.
			c.wheel.Cancel(evPowerDown)
			return false
		}
		c.wheel.Schedule(evPowerDown, now+uint64(need-1))
	} else {
		c.wheel.Cancel(evPowerDown)
	}

	edge := limit
	if at, ok := c.wheel.Next(); ok && at < edge {
		edge = at
	}
	if span := now + maxJumpSpan; edge > span {
		edge = span
	}
	if edge <= now+1 {
		return false
	}
	if err := c.ch.SkipTo(edge); err != nil {
		// invariant: the state was checked above.
		panic(err)
	}
	c.wheel.Advance(edge)
	// Replay the skipped Steps' side effects on the idle counter: each
	// would have reset it (in-flight traffic) or incremented it (true
	// idle); power-down states leave it alone.
	if state == dram.StateActiveStandby {
		if len(c.inflight) > 0 {
			c.idleCycles = 0
		} else {
			c.idleCycles += int(edge - now)
		}
	}
	return true
}

// completeReads fires callbacks for finished data bursts.
func (c *Controller) completeReads() {
	now := c.ch.Now()
	if now < c.earliestDone {
		return
	}
	kept := c.inflight[:0]
	for _, r := range c.inflight {
		if r.DoneAt <= now {
			lat := monotonicDelta(r.DoneAt, r.EnqueuedAt)
			c.stats.ReadsDone++
			c.stats.TotalReadLatency += lat
			bucket := len(latencyBounds)
			for i, bound := range latencyBounds {
				if lat <= bound {
					bucket = i
					break
				}
			}
			c.stats.LatencyHist[bucket]++
			c.hLatency.Observe(lat)
			if c.onReadDone != nil {
				c.onReadDone(r)
			}
			c.freeRequest(r)
			continue
		}
		kept = append(kept, r)
	}
	c.inflight = kept
	c.earliestDone = ^uint64(0)
	for _, r := range kept {
		if r.DoneAt < c.earliestDone {
			c.earliestDone = r.DoneAt
		}
	}
}

func (c *Controller) refreshDue() bool {
	return c.cfg.RefreshEnabled && c.ch.Now() >= c.nextRefreshAt
}

// refreshUrgent reports that refresh can no longer be postponed.
// Division-free form of (now-nextRefreshAt)/interval >= MaxPostponed.
//
//meccvet:hotpath
func (c *Controller) refreshUrgent() bool {
	if !c.cfg.RefreshEnabled {
		return false
	}
	now := c.ch.Now()
	return now >= c.nextRefreshAt &&
		now-c.nextRefreshAt >= uint64(c.cfg.MaxPostponedRefresh)*c.refreshInterval()
}

// issueRefreshIfNeeded handles the refresh state machine. It returns true
// when it consumed this cycle's command slot.
func (c *Controller) issueRefreshIfNeeded() bool {
	if !c.refreshDue() {
		return false
	}
	if c.faults != nil && c.consumeRefreshFault() {
		return false
	}
	if c.cfg.PerBankRefresh {
		return c.issuePerBankRefresh()
	}
	// Opportunistic: refresh immediately when idle; forced when urgent.
	if !c.refreshUrgent() && (len(c.readQ) > 0 || len(c.writeQ) > 0) {
		return false
	}
	if c.ch.CanREF() {
		if err := c.ch.REF(); err != nil {
			// invariant: CanREF was checked.
			panic(err)
		}
		c.stats.RefreshesIssued++
		c.refreshSeq++
		c.chk.OnRefresh(c.ch.Now(), -1)
		c.noteRefresh(-1)
		c.nextRefreshAt += c.refreshInterval()
		return true
	}
	// Close banks so REF can issue.
	for b := 0; b < c.banks; b++ {
		if c.ch.AnyRowOpen(b) && c.ch.CanPRE(b) {
			if err := c.ch.PRE(b); err != nil {
				// invariant: CanPRE was checked.
				panic(err)
			}
			return true
		}
	}
	// Waiting on tRAS/tRP/tRFC; consume the slot only if urgent so that
	// normal traffic continues otherwise.
	return c.refreshUrgent()
}

// issuePerBankRefresh refreshes banks round-robin with REFpb. Because a
// per-bank refresh blocks only its own bank, it is issued eagerly
// whenever the target bank is free; the bank is force-precharged only
// when refresh has become urgent.
func (c *Controller) issuePerBankRefresh() bool {
	bank := c.refreshBank
	// Defer while demand traffic targets this bank, unless urgent — the
	// per-bank advantage is refreshing banks the workload is not using.
	if !c.refreshUrgent() && c.bankHasQueuedWork(bank) {
		return false
	}
	if c.ch.CanREFpb(bank) {
		if err := c.ch.REFpb(bank); err != nil {
			// invariant: CanREFpb was checked.
			panic(err)
		}
		c.stats.RefreshesIssued++
		c.refreshSeq++
		c.chk.OnRefresh(c.ch.Now(), bank)
		c.noteRefresh(bank)
		c.nextRefreshAt += c.refreshInterval()
		c.refreshBank = (bank + 1) % c.banks
		return true
	}
	if !c.refreshUrgent() {
		return false
	}
	if c.ch.AnyRowOpen(bank) && c.ch.CanPRE(bank) {
		if err := c.ch.PRE(bank); err != nil {
			// invariant: CanPRE was checked.
			panic(err)
		}
		return true
	}
	return true // urgent: hold the slot until the bank frees up
}

// noteRefresh accounts one issued refresh to its divider tier's counter
// and, when traced, a KindRefresh event; bank is -1 for an all-bank
// REF.
func (c *Controller) noteRefresh(bank int) {
	if c.obs == nil {
		return
	}
	tier := c.refreshShift
	if tier < 0 {
		tier = 0
	}
	if tier >= refreshTiers {
		tier = refreshTiers - 1
	}
	c.cTier[tier].Inc()
	if c.obs.Tracing(obs.KindRefresh) {
		e := obs.Event{T: c.ch.Now(), Kind: obs.KindRefresh, Shift: c.refreshShift}
		if bank >= 0 {
			e.Bank = bank
		}
		c.obs.Emit(e)
	}
}

// bankHasQueuedWork reports whether any queued or in-flight request
// targets the bank.
func (c *Controller) bankHasQueuedWork(bank int) bool {
	for _, r := range c.readQ {
		if r.coord.Bank == bank {
			return true
		}
	}
	for _, r := range c.writeQ {
		if r.coord.Bank == bank {
			return true
		}
	}
	return false
}

// activeQueue picks reads or writes. A forced drain (entered at the high
// watermark) is sticky down to the low watermark; otherwise writes are
// issued only opportunistically, when no read is waiting, so that the
// blocking-load core never sits behind a write burst it didn't force.
func (c *Controller) activeQueue() []*Request {
	if c.draining {
		if len(c.writeQ) <= c.cfg.WriteLowWater {
			c.draining = false
		} else {
			return c.writeQ
		}
	}
	if len(c.writeQ) >= c.cfg.WriteHighWater {
		c.draining = true
		c.stats.WriteDrains++
		return c.writeQ
	}
	if len(c.readQ) > 0 {
		return c.readQ
	}
	if len(c.inflight) == 0 && len(c.writeQ) > 0 {
		return c.writeQ
	}
	return nil
}

// closeIdleRow precharges one open row that no queued request hits. It
// returns true when a PRE was issued.
func (c *Controller) closeIdleRow() bool {
	for b := 0; b < c.banks; b++ {
		if !c.ch.AnyRowOpen(b) || !c.ch.CanPRE(b) {
			continue
		}
		row := c.ch.OpenRow(b)
		if hitsOpenRow(c.readQ, row, b) || hitsOpenRow(c.writeQ, row, b) {
			continue
		}
		if err := c.ch.PRE(b); err != nil {
			// invariant: CanPRE was checked.
			panic(err)
		}
		return true
	}
	return false
}

// issueBest implements FR-FCFS with an open-page policy over the active
// queue: ready column accesses first (oldest row hit), then the oldest
// request's ACT or PRE. With FCFS only the oldest request is considered;
// with ClosedPage, otherwise-idle slots precharge unneeded rows.
func (c *Controller) issueBest() {
	q := c.activeQueue()
	if c.cfg.FCFS && len(q) > 1 {
		q = q[:1]
	}
	// Anti-starvation: when the oldest request has waited past the
	// limit, stop letting younger row hits overtake it.
	if lim := c.cfg.StarvationLimit; lim > 0 && len(q) > 1 &&
		c.ch.Now() > q[0].EnqueuedAt+uint64(lim) {
		q = q[:1]
	}
	if len(q) == 0 {
		if c.cfg.PagePolicy == ClosedPage {
			c.closeIdleRow()
		}
		return
	}

	// Pass 1: oldest ready row-hit column command.
	for _, r := range q {
		if !c.ch.RowOpen(r.coord.Bank, r.coord.Row) {
			continue
		}
		if r.IsWrite {
			if c.ch.CanWR(r.coord.Bank, r.coord.Row) {
				if _, err := c.ch.WR(r.coord.Bank, r.coord.Row); err != nil {
					// invariant: CanWR was checked.
					panic(err)
				}
				c.ch.NoteRowHit(!r.missed)
				c.removeWrite(r)
				c.freeRequest(r)
				return
			}
		} else if c.ch.CanRD(r.coord.Bank, r.coord.Row) {
			done, err := c.ch.RD(r.coord.Bank, r.coord.Row)
			if err != nil {
				// invariant: CanRD was checked.
				panic(err)
			}
			c.ch.NoteRowHit(!r.missed)
			r.DoneAt = done
			c.removeRead(r)
			c.inflight = append(c.inflight, r)
			if done < c.earliestDone {
				c.earliestDone = done
			}
			return
		}
	}

	// Pass 2: for the oldest request per bank, open its row (ACT) or
	// close a conflicting one (PRE), provided no queued request still
	// hits the open row.
	seen := c.seenBank
	for i := range seen {
		seen[i] = false
	}
	for _, r := range q {
		b := r.coord.Bank
		if seen[b] {
			continue
		}
		seen[b] = true
		switch {
		case !c.ch.AnyRowOpen(b):
			if c.ch.CanACT(b) {
				if err := c.ch.ACT(b, r.coord.Row); err != nil {
					// invariant: CanACT was checked.
					panic(err)
				}
				r.missed = true
				return
			}
		case c.ch.OpenRow(b) != r.coord.Row:
			if hitsOpenRow(q, c.ch.OpenRow(b), b) {
				continue // a younger same-queue request still wants this row
			}
			if c.ch.CanPRE(b) {
				if err := c.ch.PRE(b); err != nil {
					// invariant: CanPRE was checked.
					panic(err)
				}
				return
			}
		}
	}
	// Nothing issued this cycle: closed-page policy uses the slot to
	// retire open rows that no longer have takers.
	if c.cfg.PagePolicy == ClosedPage {
		c.closeIdleRow()
	}
}

// hitsOpenRow reports whether any request in q hits the bank's open row.
// Only the queue currently being scheduled is consulted: deferring a
// precharge for a request in the *other* queue would deadlock, since that
// request cannot issue while this queue has priority.
func hitsOpenRow(q []*Request, row, bank int) bool {
	for _, r := range q {
		if r.coord.Bank == bank && r.coord.Row == row {
			return true
		}
	}
	return false
}

// newRequest takes a Request from the freelist, or allocates one.
//
//meccvet:hotpath
func (c *Controller) newRequest() *Request {
	if n := len(c.freelist); n > 0 {
		r := c.freelist[n-1]
		c.freelist = c.freelist[:n-1]
		*r = Request{}
		return r
	}
	//meccvet:allow hotpath -- warm-up only: once the in-flight peak is reached every request is recycled through the freelist
	return new(Request)
}

// freeRequest returns a dead Request to the freelist. The caller must
// not use the pointer afterwards.
//
//meccvet:hotpath
func (c *Controller) freeRequest(r *Request) {
	c.freelist = append(c.freelist, r)
}

func (c *Controller) removeRead(r *Request) {
	for i, x := range c.readQ {
		if x == r {
			c.readQ = append(c.readQ[:i], c.readQ[i+1:]...)
			return
		}
	}
}

func (c *Controller) removeWrite(r *Request) {
	for i, x := range c.writeQ {
		if x == r {
			c.writeQ = append(c.writeQ[:i], c.writeQ[i+1:]...)
			return
		}
	}
}

// DrainAll steps until both queues and the in-flight set are empty,
// returning the number of cycles taken (bounded by maxCycles; it returns
// an error on timeout, which would indicate a scheduling livelock).
func (c *Controller) DrainAll(maxCycles uint64) (uint64, error) {
	start := c.ch.Now()
	for c.Pending() > 0 {
		if monotonicDelta(c.ch.Now(), start) > maxCycles {
			return 0, fmt.Errorf("memctrl: drain exceeded %d cycles with %d pending", maxCycles, c.Pending())
		}
		c.Step()
	}
	return monotonicDelta(c.ch.Now(), start), nil
}
