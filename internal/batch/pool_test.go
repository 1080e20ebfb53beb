package batch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolCoversRange: every index in [0, n) is visited exactly once,
// across pool sizes and batch shapes, including the inline path and a
// negative minPerWorker (treated as 1). The shard count never exceeds
// the pool's worker count, and a batch no larger than minPerWorker runs
// as one shard.
func TestPoolCoversRange(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 5, 64, 1000, 4096} {
			for _, minPer := range []int{-3, 1, 32, 5000} {
				visits := make([]int32, n)
				var shards atomic.Int32
				p.Run(n, minPer, func(_, lo, hi int) {
					shards.Add(1)
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&visits[i], 1)
					}
				})
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("workers=%d n=%d minPer=%d: index %d visited %d times", workers, n, minPer, i, v)
					}
				}
				got := int(shards.Load())
				if got > p.Workers() {
					t.Fatalf("workers=%d n=%d minPer=%d: %d shards > Workers() = %d", workers, n, minPer, got, p.Workers())
				}
				if n > 0 && n <= minPer && got != 1 {
					t.Fatalf("workers=%d n=%d minPer=%d: %d shards, want 1 (inline)", workers, n, minPer, got)
				}
			}
		}
		p.Close()
	}
}

// The TestFor* tests pin the fork-join contract the integrity and
// upgrade sweeps rely on, on the pool they run on: Default(),
// GOMAXPROCS workers.

// TestForCoversRangeExactlyOnce: a Default().Run sweep visits every
// index in [0, n) exactly once.
func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000, 4097} {
		hits := make([]int32, n)
		Default().Run(n, 8, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

// TestForSmallBatchRunsInline: with n below minPerWorker the work runs
// on the calling goroutine as one shard covering the full range.
func TestForSmallBatchRunsInline(t *testing.T) {
	calls := 0
	Default().Run(5, 100, func(w, lo, hi int) {
		calls++
		if w != 0 || lo != 0 || hi != 5 {
			t.Fatalf("inline shard %d = [%d,%d), want shard 0 = [0,5)", w, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

// TestForWorkerCap: a sweep splits into at most GOMAXPROCS shards, the
// default pool's size.
func TestForWorkerCap(t *testing.T) {
	var calls atomic.Int32
	Default().Run(1000, 1, func(_, lo, hi int) { calls.Add(1) })
	if got, max := int(calls.Load()), runtime.GOMAXPROCS(0); got > max {
		t.Fatalf("chunks = %d > GOMAXPROCS = %d", got, max)
	}
}

// TestForNegativeMinPerWorker: a negative minPerWorker reads as 1 and
// still covers every index exactly once.
func TestForNegativeMinPerWorker(t *testing.T) {
	covered := make([]int32, 10)
	Default().Run(10, -3, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	for i, h := range covered {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

// TestPoolCloseIdempotent: a second Close (the deferred-plus-explicit
// shutdown shape) must be a no-op, not a double-close panic on the
// span channels. The workers are the library's only long-lived
// goroutines, so Close must also end every one of them: the goroutine
// count returns to its value from before NewPool.
func TestPoolCloseIdempotent(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(3)
	var count atomic.Int32
	p.Run(100, 1, func(_, lo, hi int) { count.Add(int32(hi - lo)) })
	if got := count.Load(); got != 100 {
		t.Fatalf("visited %d items, want 100", got)
	}
	p.Close()
	p.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5 s after Close, want at most %d (before NewPool)", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolShardIndexStable: shard w always receives the same [lo, hi)
// for fixed (n, minPerWorker), the property per-worker accumulators rely
// on for bit-identical reduction order.
func TestPoolShardIndexStable(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const n = 1003
	var mu sync.Mutex
	first := map[int][2]int{}
	for trial := 0; trial < 20; trial++ {
		got := map[int][2]int{}
		p.Run(n, 1, func(w, lo, hi int) {
			mu.Lock()
			got[w] = [2]int{lo, hi}
			mu.Unlock()
		})
		if trial == 0 {
			first = got
			continue
		}
		if len(got) != len(first) {
			t.Fatalf("trial %d: %d shards, want %d", trial, len(got), len(first))
		}
		for w, sp := range got {
			if sp != first[w] {
				t.Fatalf("trial %d: shard %d got %v, want %v", trial, w, sp, first[w])
			}
		}
	}
}

// TestPoolRunZeroAllocs: a steady-state Run with a persistent closure
// performs no heap allocations, whether it fans out to the workers or
// runs its one shard inline — the contract the upgrade sweep's
// zero-alloc budget is built on.
func TestPoolRunZeroAllocs(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	sink := make([]int, 4096)
	fn := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sink[i]++
		}
	}
	p.Run(len(sink), 1, fn) // warm up
	if n := testing.AllocsPerRun(100, func() {
		p.Run(len(sink), 1, fn)
	}); n != 0 {
		t.Fatalf("Pool.Run allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		p.Run(len(sink), len(sink), fn) // one shard: runs inline
	}); n != 0 {
		t.Fatalf("inline Pool.Run allocates %v per call, want 0", n)
	}
}

// TestPoolConcurrentRuns: concurrent callers serialize rather than
// interleave; run under -race in CI.
func TestPoolConcurrentRuns(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 50; it++ {
				p.Run(256, 1, func(_, lo, hi int) {
					total.Add(int64(hi - lo))
				})
			}
		}()
	}
	wg.Wait()
	if got, want := total.Load(), int64(8*50*256); got != want {
		t.Fatalf("processed %d items, want %d", got, want)
	}
}

// TestDefaultPoolSingleton: Default returns one shared pool.
func TestDefaultPoolSingleton(t *testing.T) {
	a, b := Default(), Default()
	if a != b {
		t.Fatal("Default() returned distinct pools")
	}
	if a.Workers() < 1 {
		t.Fatalf("default pool has %d workers", a.Workers())
	}
	done := false
	a.Run(1, 1, func(_, lo, hi int) { done = lo == 0 && hi == 1 })
	if !done {
		t.Fatal("default pool did not run the span")
	}
}
