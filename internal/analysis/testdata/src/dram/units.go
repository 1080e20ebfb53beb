// Package dram is the unitflow time.Duration fixture: the directory
// name places it in the clock-domain scope like internal/dram.
package dram

import "time"

// config carries the clock rate used by the conversion helper.
type config struct {
	ClockHz int64
}

// badToDuration reinterprets a raw integer as nanoseconds.
func badToDuration(cycles int64) time.Duration {
	return time.Duration(cycles) // want `time.Duration\(cycles\) reinterprets a raw int64 as nanoseconds`
}

// badFromDuration drops the unit.
func badFromDuration(d time.Duration) uint64 {
	return uint64(d) // want `uint64\(d\) drops the time unit`
}

// badFloat loses the unit through a float detour.
func badFloat(d time.Duration) float64 {
	return float64(d) // want `float64\(d\) drops the time unit`
}

// TCK is a sanctioned conversion helper.
//
//meccvet:unitconv
func (c config) TCK() time.Duration {
	return time.Duration(float64(time.Second) / float64(c.ClockHz))
}

// constOK: untyped constants carry no unit to betray.
func constOK() time.Duration {
	return time.Duration(64) * time.Millisecond
}

// durationMath stays inside the Duration domain.
func durationMath(d time.Duration) time.Duration {
	return d * 2
}

// suppressed keeps a one-off conversion with a justification.
func suppressed(d time.Duration) int64 {
	return int64(d) //meccvet:allow unitflow -- JSON encoding wants raw nanoseconds
}
