// Package batch provides the one fork-join primitive behind the
// integrity Monte Carlo (internal/experiments) and the ECC-Upgrade
// sweep (internal/memdata): a Pool of persistent workers that splits n
// independent items into contiguous [lo, hi) shards. Work functions
// receive disjoint ranges, so they may write to per-index output slices
// without synchronization.
package batch

import (
	"sync/atomic"

	"repro/internal/obs"
)

// counters is one consistent set of fork-join telemetry counters:
// total Run calls, calls that ran inline, shards shipped to workers, and
// items processed. The whole set is swapped atomically so a Run call
// racing a SetObserver sees either the old recorder's counters or the
// new one's, never a mix — and never a torn pointer.
type counters struct {
	calls  *obs.Counter
	inline *obs.Counter
	chunks *obs.Counter
	items  *obs.Counter
}

// obsState holds the current counter set. A nil pointer (the default)
// reads as detached; the nil *obs.Counter methods inside zeroCounters
// are no-ops behind one branch, so the detached path stays free.
var obsState atomic.Pointer[counters]

// zeroCounters is the detached set: all-nil counters, all no-ops.
var zeroCounters counters

// loadCounters returns the current counter set, detached when no
// observer has been wired.
func loadCounters() *counters {
	if c := obsState.Load(); c != nil {
		return c
	}
	return &zeroCounters
}

// SetObserver wires the fork-join counters of every pool to a recorder
// (nil detaches). Safe to call concurrently with Run traffic: the
// counter set is published atomically as a unit.
func SetObserver(r *obs.Recorder) {
	if r == nil {
		obsState.Store(nil)
		return
	}
	obsState.Store(&counters{
		calls:  r.Counter("batch_calls_total"),
		inline: r.Counter("batch_inline_calls_total"),
		chunks: r.Counter("batch_chunks_total"),
		items:  r.Counter("batch_items_total"),
	})
}
