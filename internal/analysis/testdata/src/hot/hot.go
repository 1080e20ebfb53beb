// Package hot is a hotpath-analyzer fixture: only functions annotated
// //meccvet:hotpath are checked, wherever the package lives.
package hot

import "fmt"

// Result mirrors the shape of a decode result.
type Result struct {
	N int
}

// scratch is a reusable package-level buffer.
var scratch []int

// deferred exercises the defer and closure rules. A closure that is
// built, called and dropped inside the frame is proven non-escaping by
// the SSA escape analysis and no longer flagged; one that escapes (here
// by being returned) still is.
//
//meccvet:hotpath
func deferred() func() int {
	defer fmt.Println("done") // want `defer in hot path deferred` `fmt.Println in hot path deferred formats and allocates`
	f := func() int { return 1 }
	_ = f()                      // want `dynamic call in hot path deferred cannot be proven allocation-free; devirtualize or justify with //meccvet:allow hotpath`
	g := func() int { return 2 } // want `closure in hot path deferred`
	return g
}

// spawns exercises the goroutine rule.
//
//meccvet:hotpath
func spawns(ch chan int) {
	go func() { ch <- 1 }() // want `goroutine launch in hot path spawns` `closure in hot path spawns` `dynamic call in hot path spawns`
}

// allocates exercises the construction rules. The new(Result) whose
// pointer never leaves the frame is proven non-escaping (only its
// fields are read and written); the one that is returned allocates.
//
//meccvet:hotpath
func allocates(n int) *Result {
	buf := make([]int, n) // want `make in hot path allocates`
	_ = buf
	local := new(Result)
	local.N = n
	_ = local.N
	p := new(Result) // want `new in hot path allocates`
	sink(p)
	return &Result{N: n} // want `&composite literal in hot path allocates escapes`
}

// sink publishes its argument.
func sink(r *Result) { published = r }

// published keeps escaped results reachable.
var published *Result

// appends exercises the fresh-slice rule both ways.
//
//meccvet:hotpath
func appends(buf []int, v int) []int {
	fresh := append([]int(nil), v) // want `append into a fresh slice in hot path appends`
	_ = fresh
	buf = append(buf, v) // in-place growth of a caller buffer is sanctioned
	scratch = append(scratch, v)
	return buf
}

// boxes exercises the interface-boxing and string-conversion rules.
//
//meccvet:hotpath
func boxes(v int, sink func(any), raw []byte) string {
	sink(v)            // want `argument boxes into interface parameter in hot path boxes` `dynamic call in hot path boxes`
	return string(raw) // want `string/slice conversion in hot path boxes copies`
}

// suppressed shows the escape hatch.
//
//meccvet:hotpath
func suppressed(n int) []int {
	//meccvet:allow hotpath -- one setup allocation per batch, amortized
	out := make([]int, n)
	return out
}

// cold is unannotated: the same constructs are fine here.
func cold(n int) []int {
	out := make([]int, n)
	defer fmt.Println("cold")
	return append(out, n)
}

// values returns a stack composite literal, which is sanctioned.
//
//meccvet:hotpath
func values(n int) Result {
	return Result{N: n}
}

// passthrough forwards a variadic slice without boxing.
//
//meccvet:hotpath
func passthrough(sink func(...any), args []any) {
	sink(args...) // want `dynamic call in hot path passthrough`
}
