// Package conc is the concsafety golden fixture: pool work
// functions violating and honoring the per-index-or-atomic write
// discipline, interprocedural shared writes, //meccvet:quiescent
// reachability, and the pre-fix SetObserver race shape.
package conc

import (
	"sync/atomic"

	"repro/internal/analysis/testdata/src/batch"
)

var total int
var atomicTotal atomic.Int64

// BadSum races: the captured accumulator and the package-level counter
// are both written from every worker.
func BadSum(items []int) int {
	sum := 0
	batch.Default().Run(len(items), 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += items[i] // want `write to captured sum from a pool work function is racy`
			total++         // want `write to package-level total from a pool work function must be per-index or atomic`
		}
	})
	return sum
}

// GoodSum follows the contract: per-index output slots and atomics.
func GoodSum(items []int, out []int) {
	batch.Default().Run(len(items), 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = items[i] * 2
			atomicTotal.Add(1)
		}
	})
}

// SuppressedSum carries a justified allow on the racy line.
func SuppressedSum(items []int) int {
	sum := 0
	batch.Default().Run(len(items), 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += items[i] //meccvet:allow concsafety -- fixture: single-worker configuration documented at the call site
		}
	})
	return sum
}

// bump is the shared-write helper the interprocedural case reaches.
func bump() { total++ }

// IndirectBad hides the shared write one call deep: the work function
// itself only calls a helper.
func IndirectBad(items []int) {
	batch.Default().Run(len(items), 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			bump() // want `call to bump from a pool work function writes shared total non-atomically`
		}
	})
}

// sharedWorker is a declared work function passed by name.
func sharedWorker(_, lo, hi int) {
	for i := lo; i < hi; i++ {
		total += i // want `write to package-level total from a pool work function must be per-index or atomic`
	}
}

// BadDecl passes the declared worker; the finding lands in its body.
func BadDecl(items []int) {
	batch.Default().Run(len(items), 1, sharedWorker)
}

// TwiceDecl passes the same declared worker to a second Run call; its
// finding is still reported once.
func TwiceDecl(items []int) {
	batch.Default().Run(len(items), 1, sharedWorker)
}

// counter and SetObserver reproduce the pre-fix batch.SetObserver race
// shape: a package-level pointer swapped by a setup entry point.
type counter struct{ n int64 }

var obsCalls *counter

// SetObserver swaps the counter pointer — a plain word write, so it
// must not run concurrently with traffic.
//
//meccvet:quiescent
func SetObserver(c *counter) { obsCalls = c }

// Race is the seeded pre-fix interleaving: an observer swap launched
// concurrently with Run traffic.
func Race(items []int, out []int) {
	go SetObserver(&counter{}) // want `goroutine calls //meccvet:quiescent SetObserver`
	batch.Default().Run(len(items), 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = items[i]
		}
	})
}

// reconfigure reaches SetObserver one call deep.
func reconfigure() { SetObserver(&counter{}) }

// WorkerSwap calls the quiescent entry point from inside a work
// function, through the intermediate helper.
func WorkerSwap(items []int) {
	batch.Default().Run(len(items), 1, func(_, lo, hi int) {
		reconfigure() // want `call to reconfigure from a pool work function reaches //meccvet:quiescent SetObserver`
	})
}

// BoundWorker binds its work function to a local once, as a caller
// running one sweep per chunk does to build one closure; the finding
// lands in the literal.
func BoundWorker(items []int) int {
	sum := 0
	work := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += items[i] // want `write to captured sum from a pool work function is racy`
		}
	}
	for range 3 {
		batch.Default().Run(len(items), 1, work)
	}
	return sum
}
