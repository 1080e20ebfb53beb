// Package directive is the fixture for the directive check: meccvet
// reports a //meccvet: comment it would otherwise ignore, whichever
// analyzers run.
package directive

// Hook's doc carries a verb meccvet does not know, which would
// otherwise be ignored without a word.
//
/* want `unknown directive //meccvet:nilsaf is ignored` */ //meccvet:nilsaf
type Hook struct{ n int }

// N reads the hook.
func (h *Hook) N() int {
	return h.n /* want `//meccvet:allow names unknown analyzer "hotpath"` */ //meccvet:allow hotpath -- names a deleted analyzer
}

// Reset is exempt from a registered analyzer, which is not a finding.
func (h *Hook) Reset() {
	h.n = 0 //meccvet:allow errwrap -- fixture: a valid allow
}
