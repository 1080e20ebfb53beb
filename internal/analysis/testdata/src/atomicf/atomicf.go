// Package atomicf is the typed-atomics fixture. A word shared through
// sync/atomic must be declared as a typed atomic (atomic.Uint64,
// atomic.Pointer[T]), which allows no plain access at all. The
// address-based package functions leave the word open to a plain read
// or write anywhere else — the batch.SetObserver race shape — so every
// call to them is a finding.
package atomicf

import "sync/atomic"

// Batch is the sanctioned form: its sequence word is a typed atomic.
type Batch struct {
	seq atomic.Uint64
	n   int
}

// Bump commits an event; n has no atomic discipline and stays plain.
func (b *Batch) Bump() {
	b.seq.Add(1)
	b.n++
}

// Flush can only read the sequence atomically.
func (b *Batch) Flush() uint64 { return b.seq.Load() }

// legacy keeps its counter as a plain word under address-based atomics.
type legacy struct{ seq uint64 }

// Bump is the address-based form the rule rejects: nothing stops Flush
// from reading the same word plainly.
func (l *legacy) Bump() {
	atomic.AddUint64(&l.seq, 1) // want `atomic.AddUint64 leaves its word open to plain access elsewhere`
}

// Flush is the racing plain read the typed form would not compile.
func (l *legacy) Flush() uint64 { return l.seq }

// hits is a package-level counter under address-based atomics.
var hits uint64

// Record is flagged like any other address-based call.
func Record() {
	atomic.StoreUint64(&hits, 1) // want `atomic.StoreUint64 leaves its word open to plain access elsewhere`
}

// Sample documents a deliberate address-based read.
func Sample() uint64 {
	return atomic.LoadUint64(&hits) //meccvet:allow concsafety -- fixture: sampled by an external tool that owns the word
}
