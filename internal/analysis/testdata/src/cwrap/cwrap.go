// Package cwrap is the cyclewrap fixture: unsigned cycle subtraction
// must carry a dominating proof that it cannot wrap. The directory
// name puts it in the analyzer's scope the way internal/memctrl and
// internal/dram are.
package cwrap

// Cycle is an absolute simulator cycle count.
type Cycle uint64

// deltaUnguarded subtracts with no proof: due < now wraps to ~2^64.
func deltaUnguarded(now, due Cycle) Cycle {
	return due - now // want `unsigned subtraction due - now may wrap`
}

// deltaGuarded proves due >= now on the taken branch.
func deltaGuarded(now, due Cycle) Cycle {
	if due >= now {
		return due - now
	}
	return 0
}

// deltaEarlyReturn proves it by falling through the bail-out.
func deltaEarlyReturn(now, due Cycle) Cycle {
	if due < now {
		return 0
	}
	return due - now
}

// addendGuard folds constant addends: due > now+1 implies due >= now.
func addendGuard(now, due Cycle) Cycle {
	if due > now+1 {
		return due - now
	}
	return 0
}

// drain relies on the loop-header guard: inside the body now < due.
func drain(now, due Cycle) Cycle {
	var spins Cycle
	for now < due {
		spins += due - now
		now++
	}
	return spins
}

// sameTermOffset subtracts a term from itself plus an offset.
func sameTermOffset(now Cycle) Cycle {
	return (now + 8) - now
}

// constProp pins both sides through SSA constant propagation.
func constProp() Cycle {
	horizon := Cycle(1024)
	step := Cycle(64)
	return horizon - step
}

// guardWrongWay checks the relation but subtracts after the join,
// where the guard no longer pins the branch.
func guardWrongWay(now, due Cycle) Cycle {
	if due >= now {
		_ = now
	}
	return due - now // want `unsigned subtraction due - now may wrap`
}

// earliestGap compares two opaque fetches: nothing orders them.
func earliestGap(f func() Cycle) Cycle {
	return f() - f() // want `unsigned subtraction f\(\) - f\(\) may wrap`
}

// ringDistance wraps by design and says so.
func ringDistance(a, b Cycle) Cycle {
	//meccvet:allow cyclewrap -- modular ring distance wraps by design
	return a - b
}
