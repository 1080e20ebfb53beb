// Package esc is the stale-allow fixture: a //meccvet:allow hotpath
// directive whose suppressed finding the SSA escape analysis now
// discharges is stale and must be deleted.
package esc

// result mirrors a decode result.
type result struct{ n int }

// sum keeps its scratch allocation frame-local; the escape analysis
// proves the new clean, so the allow below it suppresses nothing.
//
//meccvet:hotpath
func sum(n int) int {
	/* want `stale //meccvet:allow hotpath` */ //meccvet:allow hotpath -- scratch header, amortized
	r := new(result)
	r.n = n
	return r.n
}

// spill's allocation escapes by return: the allow still earns its keep.
//
//meccvet:hotpath
func spill(n int) *result {
	//meccvet:allow hotpath -- one allocation per batch, amortized
	p := new(result)
	p.n = n
	return p
}
