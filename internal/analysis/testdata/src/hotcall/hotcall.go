// Package hotcall is the hotpath callee-closure fixture: roots whose
// transitive callee closures are allocation-free, allocate through an
// unannotated intermediate, or reach unprovable dynamic calls.
package hotcall

// alloc is the allocating leaf two edges below the hot root.
func alloc() []int {
	return make([]int, 8)
}

// mid is the unannotated intermediate on the breaking path.
func mid(n int) int {
	s := alloc()
	return len(s) + n
}

// add is a clean leaf.
func add(a, b int) int { return a + b }

// HotBad's closure allocates: the breaking edge is the call to mid, and
// the message names the make() leaf inside alloc.
//
//meccvet:hotpath
func HotBad(n int) int {
	return mid(n) // want `call to mid from hot path HotBad is not allocation-free`
}

// HotGood's closure is provably allocation-free.
//
//meccvet:hotpath
func HotGood(n int) int {
	return add(add(n, 1), 2)
}

// HotDyn calls through a function value: unprovable, flagged.
//
//meccvet:hotpath
func HotDyn(f func() int) int {
	return f() // want `dynamic call in hot path HotDyn cannot be proven allocation-free`
}

// HotNested trusts its annotated callee: HotGood is proven at its own
// root, keeping the analysis compositional.
//
//meccvet:hotpath
func HotNested(n int) int {
	return HotGood(n)
}

// HotSuppressed documents a justified cold fallback on the edge.
//
//meccvet:hotpath
func HotSuppressed(n int) int {
	return mid(n) //meccvet:allow hotpath -- fixture: cold fallback taken once per run
}
