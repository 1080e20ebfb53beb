// Package scopefree is a negative fixture: it commits every
// determinism and unitflow sin, but its import path carries none of
// the scoped segments, so those analyzers must stay silent.
package scopefree

import (
	"math/rand"
	"time"
)

// Stamp may read the wall clock: this package is not simulation code.
func Stamp() (int64, int, time.Duration) {
	d := time.Duration(rand.Int63())
	return time.Now().UnixNano(), rand.Intn(10), d
}
