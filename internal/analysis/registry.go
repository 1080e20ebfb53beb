package analysis

import (
	"errors"
	"fmt"
	"slices"
)

// All returns every meccvet analyzer in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Concsafety,
		Cyclewrap,
		Determinism,
		Errwrap,
	}
}

// ErrUnknownAnalyzer reports a -run filter naming no analyzer.
var ErrUnknownAnalyzer = errors.New("analysis: unknown analyzer")

// Select resolves analyzer names to analyzers; an empty list selects
// all of them. A repeated name selects its analyzer once, at its first
// position, so no finding or SARIF rule is reported twice.
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
		if !slices.Contains(out, a) {
			out = append(out, a)
		}
	}
	return out, nil
}
