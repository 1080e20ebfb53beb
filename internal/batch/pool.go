package batch

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// span is one contiguous shard of work shipped to a pool worker.
type span struct {
	lo, hi int
}

// Pool is a set of persistent worker goroutines for repeated fork-join
// sweeps. Unlike For, which spawns one goroutine and one closure per
// chunk per call, a Pool starts its workers once at construction and
// ships [lo, hi) spans to them over per-worker channels, so a steady
// caller (the per-quantum upgrade sweep) runs with zero allocations —
// provided the work function itself is a persistent closure reused
// across calls rather than rebuilt per call.
//
// The work function receives the shard index alongside the span, so
// callers can keep per-worker scratch and accumulators and combine them
// deterministically after Run returns. Shard boundaries depend only on
// (n, minPerWorker, worker count), and shard w always runs spans for
// chunk w, so a caller that sums per-shard results in index order gets
// bit-identical totals on every run.
//
// Run serializes callers internally; a Pool is safe for concurrent use
// but executes one sweep at a time.
type Pool struct {
	mu      sync.Mutex
	wg      sync.WaitGroup
	workers int
	spans   []chan span
	// fn is the sweep body for the Run in progress. It is written before
	// the span sends and read by workers after the receive, so the
	// channel send/receive pair orders the accesses.
	fn func(worker, lo, hi int)
	// pobs is the per-worker telemetry set, swapped atomically as a unit
	// (same discipline as the package-level counters): nil reads as
	// detached and costs one branch per shard.
	pobs atomic.Pointer[poolCounters]
	// closed (under mu) makes Close idempotent: the span channels have
	// exactly one closing owner, and a second Close (a deferred one
	// after an explicit shutdown) must not double-close them.
	closed bool
}

// poolCounters is one consistent set of per-pool/per-worker metrics.
type poolCounters struct {
	rec    *obs.Recorder
	runs   *obs.Counter
	inline *obs.Counter
	// Per-worker shard/item/busy-time counters, indexed by worker. Busy
	// time is wall nanoseconds inside the shard body; comparing a
	// worker's share against the total exposes shard imbalance (the
	// pool's analogue of a steal/idle ratio).
	chunksW []*obs.Counter
	itemsW  []*obs.Counter
	busyW   []*obs.Counter
}

// SetObserver attaches per-pool and per-worker metrics to the pool
// (nil detaches). The per-worker series are labeled
// batch_pool_worker_*_total{worker="N"}. Safe to call while Run
// traffic is in flight.
func (p *Pool) SetObserver(r *obs.Recorder) {
	if r == nil {
		p.pobs.Store(nil)
		return
	}
	reg := r.Registry()
	reg.SetHelp("batch_pool_worker_busy_ns_total",
		"Wall nanoseconds each pool worker spent inside shard bodies.")
	pc := &poolCounters{
		rec:    r,
		runs:   r.Counter("batch_pool_runs_total"),
		inline: r.Counter("batch_pool_inline_runs_total"),
	}
	for w := 0; w < p.workers; w++ {
		lbl := strconv.Itoa(w)
		pc.chunksW = append(pc.chunksW, r.Counter(obs.SeriesName("batch_pool_worker_chunks_total", "worker", lbl)))
		pc.itemsW = append(pc.itemsW, r.Counter(obs.SeriesName("batch_pool_worker_items_total", "worker", lbl)))
		pc.busyW = append(pc.busyW, r.Counter(obs.SeriesName("batch_pool_worker_busy_ns_total", "worker", lbl)))
	}
	r.Gauge("batch_pool_workers").Set(float64(p.workers))
	p.pobs.Store(pc)
}

// NewPool starts a pool of the given number of worker goroutines.
// workers < 1 is clamped to 1. The workers live until Close.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		workers: workers,
		spans:   make([]chan span, workers),
	}
	for w := range p.spans {
		ch := make(chan span, 1)
		p.spans[w] = ch
		go func(w int) {
			for sp := range ch {
				// The clock reads bracket the shard only when telemetry is
				// attached, so untelemetered sweeps never touch wall time.
				if pc := p.pobs.Load(); pc != nil {
					start := time.Now()
					p.fn(w, sp.lo, sp.hi)
					pc.busyW[w].Add(uint64(time.Since(start)))
					pc.chunksW[w].Inc()
					pc.itemsW[w].Add(uint64(sp.hi - sp.lo))
				} else {
					p.fn(w, sp.lo, sp.hi)
				}
				p.wg.Done()
			}
		}(w)
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Close stops the worker goroutines. The pool must be idle; Run must
// not be called afterwards. Close is idempotent — a repeated call is a
// no-op, not a double-close panic.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.spans {
		close(ch)
	}
}

// Run executes fn over [0, n) split into contiguous shards, one per
// worker, and returns once all shards complete. The shard count is
// capped by the pool size and by n/minPerWorker (rounded up); a single
// shard runs inline on the calling goroutine. fn receives the shard
// index (0-based, dense) and its [lo, hi) range; disjoint ranges mean
// fn may write per-index outputs without synchronization.
//
//meccvet:hotpath
func (p *Pool) Run(n, minPerWorker int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	c := loadCounters()
	c.calls.Inc()
	c.items.Add(uint64(n))
	pc := p.pobs.Load()
	if pc != nil {
		pc.runs.Inc()
	}
	if minPerWorker < 1 {
		minPerWorker = 1
	}
	shards := p.workers
	if limit := (n + minPerWorker - 1) / minPerWorker; shards > limit {
		shards = limit
	}
	if shards <= 1 {
		c.inline.Inc()
		if pc != nil {
			pc.inline.Inc()
			pc.itemsW[0].Add(uint64(n))
		}
		//meccvet:allow hotpath -- caller-supplied shard body; each caller proves its own body at a hotpath root
		fn(0, 0, n)
		return
	}
	var sweepSpan *obs.Span
	if pc != nil && pc.rec.Tracing(obs.KindSpanStart) {
		//meccvet:allow hotpath -- span bookkeeping runs only on traced sweeps; untraced runs take the nil path
		sweepSpan = pc.rec.StartSpan("batch_run", uint64(time.Now().UnixNano()))
	}
	p.mu.Lock()
	p.fn = fn
	chunk := (n + shards - 1) / shards
	for w := 0; w < shards; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		c.chunks.Inc()
		p.wg.Add(1)
		p.spans[w] <- span{lo: lo, hi: hi}
	}
	p.wg.Wait()
	p.fn = nil
	p.mu.Unlock()
	if sweepSpan != nil {
		//meccvet:allow hotpath -- traced sweeps only; see above
		sweepSpan.End(uint64(time.Now().UnixNano()))
	}
}

// defaultPool is the shared process-wide pool, sized to GOMAXPROCS at
// first use.
var (
	defaultPool     *Pool
	defaultPoolOnce sync.Once
)

// Default returns the shared process-wide pool, creating it (with
// GOMAXPROCS workers) on first use. Callers share its serialization:
// concurrent Run calls queue behind one another.
func Default() *Pool {
	defaultPoolOnce.Do(func() {
		defaultPool = NewPool(runtime.GOMAXPROCS(0))
	})
	return defaultPool
}
