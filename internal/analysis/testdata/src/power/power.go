// Package power is the unitflow golden fixture: cycle-counted and
// nanosecond-counted integers mixing in arithmetic, comparisons, call
// arguments, assignments, and returns — plus the sanctioned forms
// (multiplication, unitconv helpers, consistent domains).
package power

// BadAdd mixes the two clock domains additively.
func BadAdd(refreshCycles, idleNs uint64) uint64 {
	return refreshCycles + idleNs // want `\+ mixes a cycle count \(refreshCycles\) with a nanosecond count \(idleNs\)`
}

// BadCompare mixes the domains in a comparison.
func BadCompare(deadlineCycles, elapsedNs uint64) bool {
	return elapsedNs > deadlineCycles // want `> mixes a nanosecond count \(elapsedNs\) with a cycle count \(deadlineCycles\)`
}

// BadAssign stores a nanosecond count into a cycle-denominated slot.
func BadAssign(burstNs uint64) uint64 {
	var windowCycles uint64
	windowCycles = burstNs // want `assigning a nanosecond count to cycle-denominated windowCycles`
	return windowCycles
}

// BadFlow launders the unit through an unnamed intermediate: the
// dataflow solver carries the nanosecond tag across the assignment.
func BadFlow(tickNs uint64) uint64 {
	t := tickNs
	var budgetCycles uint64
	budgetCycles = t // want `assigning a nanosecond count to cycle-denominated budgetCycles`
	return budgetCycles
}

// schedule declares a cycle-denominated parameter.
func schedule(refreshCycles uint64) uint64 {
	return refreshCycles * 2
}

// BadArg hands schedule a nanosecond count — the interprocedural
// parameter-name check.
func BadArg(idleNs uint64) uint64 {
	return schedule(idleNs) // want `argument idleNs carries a nanosecond count but parameter refreshCycles of schedule is cycle-denominated`
}

// BadReturn violates its own named result.
func BadReturn(idleNs uint64) (cycles uint64) {
	return idleNs // want `returning a nanosecond count from BadReturn, which declares a cycle result`
}

// windowCycles carries its result unit in the function name; callers
// inherit it through the call-graph summary.
func windowCycles() uint64 { return 128 }

// BadResultUse mixes a callee's cycle-denominated result with
// nanoseconds.
func BadResultUse(idleNs uint64) uint64 {
	return idleNs + windowCycles() // want `\+ mixes a nanosecond count \(idleNs\) with a cycle count \(windowCycles\(\)\)`
}

// BadIfCond mixes the domains in an if condition.
func BadIfCond(idleNs, limitCycles uint64) bool {
	if idleNs > limitCycles { // want `> mixes a nanosecond count \(idleNs\) with a cycle count \(limitCycles\)`
		return true
	}
	return false
}

// BadLoopCond mixes the domains in a for condition.
func BadLoopCond(budgetNs uint64) uint64 {
	var spentCycles uint64
	for spentCycles < budgetNs { // want `< mixes a cycle count \(spentCycles\) with a nanosecond count \(budgetNs\)`
		spentCycles += 64
	}
	return spentCycles
}

// BadRangeBody mixes the domains once inside a range body: the mix is
// one finding, however the loop is lowered.
func BadRangeBody(waitsNs []uint64, startCycles uint64) uint64 {
	var sum uint64
	for _, waitNs := range waitsNs {
		sum += waitNs - startCycles // want `- mixes a nanosecond count \(waitNs\) with a cycle count \(startCycles\)`
	}
	return sum
}

// BadSwitchTag mixes the domains in a switch tag.
func BadSwitchTag(nowNs, dueCycles uint64) bool {
	switch nowNs - dueCycles { // want `- mixes a nanosecond count \(nowNs\) with a cycle count \(dueCycles\)`
	case 0:
		return true
	}
	return false
}

// Convert is the sanctioned conversion shape: scaling by a rate.
func Convert(idleNs, ratio uint64) uint64 {
	return idleNs * ratio
}

// GoodSum stays within one domain.
func GoodSum(readCycles, writeCycles uint64) uint64 {
	return readCycles + writeCycles
}

// Mixed documents deliberate cross-domain math.
func Mixed(aCycles, bNs uint64) uint64 {
	return aCycles + bNs //meccvet:allow unitflow -- fixture: deliberate epoch arithmetic
}

// ToCycles is a sanctioned converter: unitconv helpers are exempt
// wholesale, mixing included.
//
//meccvet:unitconv
func ToCycles(valNs, baseCycles uint64) uint64 {
	return valNs + baseCycles
}
