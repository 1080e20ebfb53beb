package scenario

import (
	"errors"
	"io/fs"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the spec parser, seeded with every
// built-in spec. Nothing may panic, every rejection must wrap
// ErrBadSpec, and every accepted phase must have a non-negative
// Duration, or the run would fail mid-way on a wrapped duration.
func FuzzParse(f *testing.F) {
	files, err := fs.Glob(specFS, "specs/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range files {
		data, err := fs.ReadFile(specFS, name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(validSpecJSON()))
	// An idle phase whose nanoseconds overflow int64.
	f.Add([]byte(strings.Replace(validSpecJSON(), `"duration_ms": 1`, `"duration_ms": 1e300`, 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("rejection does not wrap ErrBadSpec: %v", err)
			}
			return
		}
		for i, p := range s.Phases {
			if d := p.Duration(); d < 0 {
				t.Fatalf("accepted phase %s has duration %v (duration_ms %g)", p.Label(i), d, p.DurationMS)
			}
		}
	})
}
