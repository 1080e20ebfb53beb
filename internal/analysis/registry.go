package analysis

import (
	"errors"
	"fmt"
)

// All returns every meccvet analyzer in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Atomicfield,
		Concsafety,
		Cycleunits,
		Cyclewrap,
		Determinism,
		Errwrap,
		Hotclosure,
		Hotescape,
		Hotpath,
		Nilhook,
		Nopanic,
		Seedflow,
		Seqlock,
		Unitflow,
	}
}

// ErrUnknownAnalyzer reports a -run filter naming no analyzer.
var ErrUnknownAnalyzer = errors.New("analysis: unknown analyzer")

// Select resolves analyzer names to analyzers; an empty list selects
// all of them.
func Select(names []string) ([]*Analyzer, error) {
	if len(names) == 0 {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownAnalyzer, n)
		}
		out = append(out, a)
	}
	return out, nil
}
