package batch

import (
	"runtime"
	"sync"
)

// span is one contiguous shard of work shipped to a pool worker.
type span struct {
	lo, hi int
}

// Pool is a set of persistent worker goroutines for repeated fork-join
// sweeps. The workers start once at construction and receive [lo, hi)
// spans over per-worker channels, so a Run allocates nothing of its own:
// a caller that reuses one work function across calls (the per-quantum
// upgrade sweep, the per-chunk integrity sweep) runs with zero
// allocations, and one that builds a closure per call pays that one
// allocation.
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
	// closed (under mu) makes Close idempotent: the span channels have
	// exactly one closing owner, and a second Close (a deferred one
	// after an explicit shutdown) must not double-close them.
	closed bool
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
				p.fn(w, sp.lo, sp.hi)
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
// shard runs inline on the calling goroutine. minPerWorker < 1 is
// treated as 1. fn receives the shard index (0-based, dense) and its
// [lo, hi) range; disjoint ranges mean fn may write per-index outputs
// without synchronization.
//
// A fanned-out Run holds the pool's lock for the whole sweep, so fn
// must never call Run on the same pool: the inner call would wait for
// the outer one to finish, which waits for fn.
func (p *Pool) Run(n, minPerWorker int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	c := loadCounters()
	c.calls.Inc()
	c.items.Add(uint64(n))
	if minPerWorker < 1 {
		minPerWorker = 1
	}
	shards := p.workers
	if limit := (n + minPerWorker - 1) / minPerWorker; shards > limit {
		shards = limit
	}
	if shards <= 1 {
		c.inline.Inc()
		fn(0, 0, n)
		return
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
}

// defaultPool is the shared process-wide pool, sized to GOMAXPROCS at
// first use.
var (
	defaultPool     *Pool
	defaultPoolOnce sync.Once
)

// Default returns the shared process-wide pool, creating it (with
// GOMAXPROCS workers) on first use. Callers share its serialization:
// concurrent fanned-out Run calls queue behind one another.
func Default() *Pool {
	defaultPoolOnce.Do(func() {
		defaultPool = NewPool(runtime.GOMAXPROCS(0))
	})
	return defaultPool
}
