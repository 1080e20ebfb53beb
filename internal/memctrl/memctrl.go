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
	// LegacyStepping disables StepOrJump's fast-forward jumps: it
	// degrades to plain per-cycle Step. Kept as the reference path that
	// every jump-vs-legacy differential test compares against.
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
	// Queue depths, published on demand by PublishObs rather than from
	// the scheduling hot paths.
	gReadDepth  *obs.Gauge
	gWriteDepth *obs.Gauge
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

// SetObserver attaches a telemetry recorder (nil detaches): per-tier
// refresh counters, the read-latency histogram, queue depth gauges, and
// refresh events. The recorder it replaces gets its refresh-shift and
// queue-depth gauges back at rest (0), so a finished run that detaches
// leaves a shared registry reading the same whatever order parallel
// runs ended in.
func (c *Controller) SetObserver(r *obs.Recorder) {
	c.gShift.Set(0)
	c.gReadDepth.Set(0)
	c.gWriteDepth.Set(0)
	c.obs = r
	if r == nil {
		c.hLatency, c.gShift = nil, nil
		c.cTier = [refreshTiers]*obs.Counter{}
		c.gReadDepth, c.gWriteDepth = nil, nil
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
	c.gReadDepth = r.Gauge("memctrl_read_queue_depth")
	c.gWriteDepth = r.Gauge("memctrl_write_queue_depth")
}

// PublishObs pushes the controller's sampled-state metrics — queue
// depths and the read latencies buffered since the last call — to the
// attached recorder. The latency buffer is plain memory so the hot
// paths stay atomic-free; callers (the sim loop, a serving tick) invoke
// this at whatever cadence live scraping needs, and once more at the
// end so the totals are exact.
func (c *Controller) PublishObs() {
	if c.obs == nil {
		return
	}
	c.hLatency.Drain()
	c.gReadDepth.Set(float64(len(c.readQ)))
	c.gWriteDepth.Set(float64(len(c.writeQ)))
}

// monotonicDelta returns cur-prev for a cycle count expected to only
// grow (a read's latency, a drain's duration), clamping to 0 if it ever
// moved backwards instead of wrapping to ~2^64.
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
func (c *Controller) Step() { c.step() }

// step is Step returning the busy edge for StepOrJump: issueBest's edge
// when the cycle issued no command and fired no completion callback,
// else 0 (no jump). A callback hands control back to the caller, which
// may act on the very next cycle.
func (c *Controller) step() uint64 {
	fired := c.completeReads()

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
		return 0
	case dram.StateSelfRefresh:
		// Self refresh is entered/exited by the system layer, never
		// autonomously here.
		c.ch.Tick()
		return 0
	}

	if !hasWork && len(c.inflight) == 0 {
		// Closed-page: drain open rows before powering down.
		if c.cfg.PagePolicy == ClosedPage && c.closeIdleRow() {
			c.ch.Tick()
			return 0
		}
		c.idleCycles++
		if c.cfg.PowerDownIdle > 0 && c.idleCycles >= c.cfg.PowerDownIdle {
			if err := c.ch.EnterPowerDown(); err == nil {
				c.stats.PowerDownEntries++
			}
		}
		c.ch.Tick()
		return 0
	}
	c.idleCycles = 0

	var edge uint64
	if !c.issueRefreshIfNeeded() {
		edge = c.issueBest()
	}
	c.ch.Tick()
	if fired {
		return 0
	}
	return edge
}

// maxJumpSpan bounds a single fast-forward (2^20 DRAM cycles, ~1.3 ms at
// LPDDR rates): long quiescent stretches take a handful of jumps instead
// of one unbounded leap.
const maxJumpSpan = uint64(1) << 20

// StepOrJump advances the controller by one cycle, skipping ahead to the
// next timing edge (never past limit) when the cycles in between provably
// hold nothing to do. Three fast paths exist:
//   - an idle jump (tryJump) taken instead of the Step when the queues
//     are empty; when it reaches the power-down entry cycle it takes that
//     cycle's Step itself and goes on with the power-down jump;
//   - the one-request service (serveOne), taken instead of the Step when
//     the scheduler can pick exactly one request: it wakes the rank from
//     power-down, issues that request's PRE/ACT/column chain at the
//     timing edges and, after a RD, takes the completion cycle's Step,
//     all in one call;
//   - a busy jump taken directly after a Step that issued no command and
//     fired no completion callback, to the edge issueBest returned.
//
// Every skipped cycle is one whose Step would have issued nothing and
// changed no state but the clock and the idle counter, and every command
// and power-state transition happens on the cycle a Step would make it
// happen, so queues, the refresh schedule, power-state residency and
// statistics evolve exactly as under per-cycle stepping (the
// jump-vs-legacy differential tests pin this). No call crosses an
// enqueue, a completion callback or limit: the caller regains control at
// the first cycle where any of them could happen, and a call that fires
// a callback returns at the end of that cycle's Step. Only the service
// issues more than one command in a call, and only its last command, the
// RD or WR, frees queue room: it returns on the WR's cycle, and it
// refuses a read that fills the read queue, so a caller waiting for room
// regains control on the cycle per-cycle stepping would give it. With
// Config.LegacyStepping set StepOrJump always takes the per-cycle path.
func (c *Controller) StepOrJump(limit uint64) {
	if c.cfg.LegacyStepping {
		c.Step()
		return
	}
	if c.tryJump(limit) || c.serveOne(limit) {
		return
	}
	edge := min(c.step(), limit)
	if now := c.ch.Now(); edge > now {
		c.skipTo(min(edge, now+maxJumpSpan))
	}
}

// skipTo fast-forwards the channel through cycles the caller has proven
// quiescent.
func (c *Controller) skipTo(cycle uint64) {
	if err := c.ch.SkipTo(cycle); err != nil {
		// invariant: every fast path runs in active standby or
		// power-down, and issuing nothing keeps the state.
		panic(err)
	}
}

// serveOne is the one-request service: it reports false unless the
// scheduler can pick exactly one request, with nothing in flight, under
// open page, with no refresh-fault plan and with the rank in active
// standby or power-down. It stops at min(limit, now+maxJumpSpan, next
// refresh slot): before that slot no refresh is due, so the Steps it
// replaces issue nothing else and only zero idleCycles. In power-down it
// first takes the wake Step (ExitPowerDown, then Tick), provided the
// horizon leaves at least one cycle after it. Then it issues the
// request's remaining chain — PRE on a row conflict, ACT on a closed
// bank, then its RD or WR — each command at max(previous command + 1,
// its Earliest* cycle), which is the cycle per-cycle Steps would issue
// it on, since with one candidate issueBest tries exactly the command
// nextCommand names. After a RD whose data returns before the horizon it
// takes the completion cycle's Step, which fires the callback, and
// returns; otherwise it jumps to the horizon. After a WR it returns at
// once. It refuses a read that fills the read queue, since its RD frees
// the room a caller may be waiting for.
//
// activeQueue's side effects (drain entry and exit) happen in the first
// Step it replaces in active standby; repeating the call with unchanged
// queue lengths changes nothing, so the Steps after it need no replay.
// The wake Step calls no activeQueue, and the Step after it calls one
// with the same queue lengths, so in power-down the service predicts the
// pick without side effects and refuses unless no drain is pending or
// due: then activeQueue picks the read queue when it holds a request,
// else the write queue, and changes nothing.
func (c *Controller) serveOne(limit uint64) bool {
	if len(c.inflight) > 0 || c.faults != nil || c.cfg.PagePolicy != OpenPage || c.refreshDue() {
		return false
	}
	now := c.ch.Now()
	horizon := min(limit, now+maxJumpSpan)
	if c.cfg.RefreshEnabled {
		horizon = min(horizon, c.nextRefreshAt)
	}
	if horizon <= now+1 {
		return false
	}
	if len(c.readQ) != 1 && len(c.writeQ) != 1 {
		return false // no queue selection can hold exactly one request
	}
	var q []*Request
	wake := false
	switch c.ch.State() {
	case dram.StateActiveStandby:
		q = c.activeQueue()
	case dram.StatePrechargePD, dram.StateActivePD:
		if c.draining || len(c.writeQ) >= c.cfg.WriteHighWater {
			return false
		}
		q, wake = c.readQ, true
		if len(q) == 0 {
			q = c.writeQ
		}
	default:
		return false
	}
	if len(q) != 1 || !q[0].IsWrite && !c.CanEnqueueRead() {
		return false
	}
	r := q[0]
	if wake {
		if err := c.ch.ExitPowerDown(); err != nil {
			// invariant: the state is a power-down state.
			panic(err)
		}
		c.ch.Tick()
	}
	c.idleCycles = 0
	for {
		cmd, at := c.nextCommand(r)
		if at = max(at, c.ch.Now()); at >= horizon {
			c.skipTo(horizon)
			return true
		}
		c.skipTo(at)
		c.issue(r, cmd)
		c.ch.Tick()
		switch cmd {
		case dram.CmdRD:
			if r.DoneAt >= horizon {
				c.skipTo(horizon)
				return true
			}
			c.skipTo(r.DoneAt)
			c.step()
			return true
		case dram.CmdWR:
			return true
		}
	}
}

// busyBound is the queue-independent part of issueBest's busy edge: 0
// when busy jumps are refused, else the earliest in-flight completion
// capped by the refresh machine's next action. Busy jumps are refused
// with empty queues (tryJump's case), under closed-page (idle slots
// retire open rows) and under refresh fault injection. The refresh
// bound is the next slot under per-bank refresh, which issues REFpb to
// idle banks even under load; under all-bank refresh it is the urgency
// deadline, since a due but postponed REF waits while the queues stay
// busy.
func (c *Controller) busyBound() uint64 {
	if len(c.readQ) == 0 && len(c.writeQ) == 0 ||
		c.cfg.PagePolicy != OpenPage || c.faults != nil {
		return 0
	}
	edge := c.earliestDone
	if c.cfg.RefreshEnabled {
		at := c.nextRefreshAt
		if !c.cfg.PerBankRefresh {
			at += uint64(c.cfg.MaxPostponedRefresh) * c.refreshInterval()
		}
		edge = min(edge, at)
	}
	return edge
}

// tryJump fast-forwards to the next timing edge when the current cycle
// provably cannot issue a command or change state, taking on the way the
// power-down entry cycle's Step. It returns false — punting back to the
// cycle-exact Step — whenever anything else is due now or within one
// cycle.
//
// The quiescence argument, case by case:
//   - queues must be empty: queued work is the busy jump's case;
//   - active standby with in-flight reads: per-cycle Steps only reset
//     idleCycles and Tick until the earliest DoneAt, so the edge is
//     earliestDone;
//   - active standby, idle: per-cycle Steps increment idleCycles and
//     Tick; the next edges are the refresh slot and the power-down
//     entry cycle now+(PowerDownIdle-idleCycles)-1. When the entry comes
//     first, tryJump jumps to it and takes its Step (the idle counter
//     reaches PowerDownIdle, the rank enters power-down, and the Tick
//     accrues the cycle in power-down), then goes on with the
//     power-down jump to the same edge;
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

	// The edge is the minimum of three deadlines: the next refresh slot,
	// the earliest in-flight completion and the power-down entry cycle.
	edge := min(limit, now+maxJumpSpan)
	if c.cfg.RefreshEnabled {
		edge = min(edge, c.nextRefreshAt)
	}
	if len(c.inflight) > 0 {
		// earliestDone <= now means a completion callback is due this
		// cycle; the edge check below then refuses and Step fires it.
		edge = min(edge, c.earliestDone)
	} else if state == dram.StateActiveStandby && c.cfg.PowerDownIdle > 0 {
		// The Step that raises idleCycles to PowerDownIdle enters.
		need := max(c.cfg.PowerDownIdle-c.idleCycles, 1)
		if entry := now + uint64(need-1); entry < edge {
			c.skipTo(entry)
			c.idleCycles += need
			if err := c.ch.EnterPowerDown(); err != nil {
				// invariant: the state is active standby.
				panic(err)
			}
			c.stats.PowerDownEntries++
			c.ch.Tick()
			// With empty queues and nothing in flight, the power-down
			// Steps up to the edge only Tick.
			c.skipTo(edge)
			return true
		}
	}
	if edge <= now+1 {
		return false
	}
	c.skipTo(edge)
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

// completeReads fires callbacks for finished data bursts and reports
// whether any completed.
func (c *Controller) completeReads() bool {
	now := c.ch.Now()
	if now < c.earliestDone {
		return false
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
	return true
}

func (c *Controller) refreshDue() bool {
	return c.cfg.RefreshEnabled && c.ch.Now() >= c.nextRefreshAt
}

// refreshUrgent reports that refresh can no longer be postponed.
// Division-free form of (now-nextRefreshAt)/interval >= MaxPostponed.
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
//
// It returns 0 when it issued a command. Otherwise it returns the busy
// edge: the earliest cycle at which it could act, which is the minimum
// of the Earliest* value of every candidate its passes visit (exact,
// since Can* holds at t iff t >= Earliest* while no command issues),
// the anti-starvation trip and busyBound. A 0 from busyBound refuses
// the jump. Queue contents and the queue selection (draining included)
// cannot change before that edge: enqueues happen between StepOrJump
// calls, and completions are capped by busyBound.
func (c *Controller) issueBest() uint64 {
	q := c.activeQueue()
	if c.ch.State() != dram.StateActiveStandby {
		return 0 // no command can issue
	}
	if c.cfg.FCFS && len(q) > 1 {
		q = q[:1]
	}
	now := c.ch.Now()
	edge := ^uint64(0)
	// Anti-starvation: when the oldest request has waited past the
	// limit, stop letting younger row hits overtake it.
	if lim := c.cfg.StarvationLimit; lim > 0 && len(q) > 1 {
		if trip := q[0].EnqueuedAt + uint64(lim); now > trip {
			q = q[:1]
		} else {
			edge = trip + 1
		}
	}
	if len(q) == 0 {
		if c.cfg.PagePolicy == ClosedPage {
			c.closeIdleRow()
		}
		return min(edge, c.busyBound())
	}

	// Pass 1: oldest ready row-hit column command.
	for _, r := range q {
		if !c.ch.RowOpen(r.coord.Bank, r.coord.Row) {
			continue
		}
		cmd, at := c.nextCommand(r)
		if at > now {
			edge = min(edge, at)
			continue
		}
		c.issue(r, cmd)
		return 0
	}

	// Pass 2: for the oldest request per bank, open its row (ACT) or
	// close a conflicting one (PRE), provided no queued request still
	// hits the open row; such a request has its own pass-1 edge.
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
		cmd, at := c.nextCommand(r)
		switch {
		case cmd == dram.CmdRD || cmd == dram.CmdWR:
			continue // a row hit: pass 1 took its edge
		case cmd == dram.CmdPRE && hitsOpenRow(q, c.ch.OpenRow(b), b):
			continue // a younger same-queue request still wants this row
		case at > now:
			edge = min(edge, at)
			continue
		}
		c.issue(r, cmd)
		return 0
	}
	// Nothing issued this cycle: closed-page policy uses the slot to
	// retire open rows that no longer have takers.
	if c.cfg.PagePolicy == ClosedPage {
		c.closeIdleRow()
	}
	return min(edge, c.busyBound())
}

// nextCommand returns the command r needs next on its bank — its RD or
// WR on a row hit, ACT on a closed bank, PRE on a row conflict — and the
// first cycle it can issue, assuming no command issues before then.
func (c *Controller) nextCommand(r *Request) (dram.CommandKind, uint64) {
	b := r.coord.Bank
	switch {
	case !c.ch.AnyRowOpen(b):
		return dram.CmdACT, c.ch.EarliestACT(b)
	case c.ch.OpenRow(b) != r.coord.Row:
		return dram.CmdPRE, c.ch.EarliestPRE(b)
	case r.IsWrite:
		return dram.CmdWR, c.ch.EarliestWR(b)
	default:
		return dram.CmdRD, c.ch.EarliestRD(b)
	}
}

// issue issues cmd, nextCommand's choice for r, at the current cycle and
// keeps the request's accounting: an ACT marks r as having missed the
// row buffer; a column command notes the row hit or miss and takes r off
// its queue, a write to the freelist and a read into the in-flight set.
func (c *Controller) issue(r *Request, cmd dram.CommandKind) {
	b, row := r.coord.Bank, r.coord.Row
	var err error
	switch cmd {
	case dram.CmdPRE:
		err = c.ch.PRE(b)
	case dram.CmdACT:
		err = c.ch.ACT(b, row)
		r.missed = true
	case dram.CmdWR:
		_, err = c.ch.WR(b, row)
		c.ch.NoteRowHit(!r.missed)
		c.removeWrite(r)
		c.freeRequest(r)
	case dram.CmdRD:
		r.DoneAt, err = c.ch.RD(b, row)
		c.ch.NoteRowHit(!r.missed)
		c.removeRead(r)
		c.inflight = append(c.inflight, r)
		c.earliestDone = min(c.earliestDone, r.DoneAt)
	}
	if err != nil {
		// invariant: the caller checked cmd's Earliest* cycle.
		panic(err)
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
func (c *Controller) newRequest() *Request {
	if n := len(c.freelist); n > 0 {
		r := c.freelist[n-1]
		c.freelist = c.freelist[:n-1]
		*r = Request{}
		return r
	}
	// Warm-up only: once the in-flight peak is reached every request is
	// recycled through the freelist.
	return new(Request)
}

// freeRequest returns a dead Request to the freelist. The caller must
// not use the pointer afterwards.
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
