// Package batch is a fixture stand-in for the real fork-join primitive:
// concsafety recognizes Pool.Run by name and by the "batch" path
// segment, so this helper package gives the conc fixture a Pool with the
// real Run signature without importing the simulator.
package batch

// Pool stands in for the persistent worker pool.
type Pool struct{}

// Default returns a pool, as the real Default returns the shared one.
func Default() *Pool { return &Pool{} }

// Run runs fn over [0, n) — inline, since fixtures only need the shape.
func (p *Pool) Run(n, minPerWorker int, fn func(worker, lo, hi int)) {
	if n > 0 {
		fn(0, 0, n)
	}
}
