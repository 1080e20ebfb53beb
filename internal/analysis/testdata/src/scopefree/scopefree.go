// Package scopefree is a negative fixture: it reads the wall clock and
// the global math/rand and subtracts unsigned cycle counts unguarded,
// but its import path carries none of the scoped segments, so
// determinism and cyclewrap must stay silent.
package scopefree

import (
	"math/rand"
	"time"
)

// Stamp may read the wall clock: this package is not simulation code.
func Stamp() (int64, int) {
	return time.Now().UnixNano(), rand.Intn(10)
}

// Elapsed subtracts without a guard: cyclewrap's scope is memctrl and
// dram only.
func Elapsed(nowCycle, startCycle uint64) uint64 {
	return nowCycle - startCycle
}
