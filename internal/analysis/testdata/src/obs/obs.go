// Package obs is a nilhook-analyzer fixture: the directory name puts
// it in the hook-provider scope, and its Recorder mirrors the real
// internal/obs contract (nil receiver == telemetry disabled).
package obs

// Event is the payload consumers construct at Emit sites.
type Event struct {
	T    uint64
	Kind string
}

// Recorder is the nil-safe telemetry handle.
//
//meccvet:nilsafe
type Recorder struct {
	events []Event
	on     bool
}

// Emit records one event; guarded correctly.
func (r *Recorder) Emit(e Event) {
	if r == nil || !r.on {
		return
	}
	r.events = append(r.events, e)
}

// Tracing reports whether events of the kind are being collected; the
// return-expression guard form.
func (r *Recorder) Tracing(kind string) bool { return r != nil && r.on }

// Count is missing its guard.
func (r *Recorder) Count() int { // want `exported method \(\*Recorder\).Count must begin with a nil-receiver guard`
	return len(r.events)
}

// Reset is guarded but not first, which still dereferences first.
func (r *Recorder) Reset() { // want `exported method \(\*Recorder\).Reset must begin with a nil-receiver guard`
	n := len(r.events)
	if r == nil || n == 0 {
		return
	}
	r.events = r.events[:0]
}

// Suppressed documents a deliberately nil-unsafe method.
//
//meccvet:allow nilhook -- constructor-only helper, never nil
func (r *Recorder) Suppressed() int {
	return len(r.events)
}

// internalPeek is unexported: callers inside the package own the nil
// handling, so the guard is not required.
func (r *Recorder) internalPeek() int {
	return len(r.events)
}

// Enabled has a value receiver, which cannot be nil.
type Meter struct{ n int }

// Add is exported on a value receiver; out of the rule's scope.
func (m Meter) Add(d int) int { return m.n + d }
