package obs

// Recorder is the telemetry handle threaded through the simulator: it
// bundles a metrics registry, any number of event logs (the always-on
// flight recorder, a trace log), an optional time-series sampler, and
// an optional live progress tracker. A nil *Recorder is the disabled
// state — every method is a no-op and every metric handle it returns is
// a nil no-op — so instrumented packages hold a possibly-nil *Recorder
// and never branch on "is telemetry on" beyond a nil check.
//
// Each event log keeps a fixed set of kinds: the flight recorder
// FlightKinds, a trace log the mask it was built with. Tracing(k) tells
// producers whether any attached log keeps kind k, so a kind nobody
// keeps — per-command and per-read events under the default
// flight-only configuration — costs its producer one branch.
type Recorder struct {
	reg     *Registry
	logs    []*EventLog
	mask    KindMask // union of the logs' masks
	sampler *Sampler
	prog    *Progress
}

// New builds a recorder with a fresh registry and no event log or
// sampler (metrics only).
func New() *Recorder {
	return &Recorder{reg: NewRegistry()}
}

// AddEventLog attaches an event log: from then on Emit sends it every
// event of a kind its mask keeps, and Tracing reports true for those
// kinds. Attach logs before the run starts emitting.
func (r *Recorder) AddEventLog(l *EventLog) {
	if r == nil || l == nil {
		return
	}
	r.logs = append(r.logs, l)
	r.mask |= l.mask
}

// SetSampler attaches (or, with nil, detaches) a time-series sampler.
func (r *Recorder) SetSampler(s *Sampler) {
	if r == nil {
		return
	}
	r.sampler = s
}

// SetProgress attaches (or, with nil, detaches) a progress tracker.
func (r *Recorder) SetProgress(p *Progress) {
	if r == nil {
		return
	}
	r.prog = p
}

// Progress returns the attached progress tracker, if any (nil-safe to
// use either way).
func (r *Recorder) Progress() *Progress {
	if r == nil {
		return nil
	}
	return r.prog
}

// Registry returns the metrics registry (nil on a nil recorder).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Sampler returns the attached sampler, if any.
func (r *Recorder) Sampler() *Sampler {
	if r == nil {
		return nil
	}
	return r.sampler
}

// Counter resolves a named counter (nil no-op handle when disabled).
// Resolve once at wiring time, not in hot loops: creation takes a lock.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.reg.Counter(name)
}

// Gauge resolves a named gauge (nil no-op handle when disabled).
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.reg.Gauge(name)
}

// Histogram resolves a named histogram (nil no-op handle when disabled).
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.reg.Histogram(name)
}

// Emit records one structured event into each attached log that keeps
// its kind. Callers on hot paths guard the call (and the Event
// construction) behind their own Tracing(kind) check so a kind no log
// keeps costs no work at all. A FlightKinds event under the default
// flight-only configuration takes one mutex and allocates nothing.
func (r *Recorder) Emit(e Event) {
	if r == nil || !r.mask.Has(e.Kind) {
		return
	}
	for _, l := range r.logs {
		if l.mask.Has(e.Kind) {
			l.add(e)
		}
	}
}

// Tracing reports whether an attached log keeps events of kind k — the
// guard hot paths put around building and emitting an Event of that
// kind (`if r.Tracing(obs.KindDecode) { r.Emit(...) }`). The logs' kind
// sets are fixed once attached, so the check is one mask test.
func (r *Recorder) Tracing(k Kind) bool {
	return r != nil && r.mask.Has(k)
}

// Tick advances the sampler, if any, to cycle now.
func (r *Recorder) Tick(now uint64) {
	if r == nil || r.sampler == nil {
		return
	}
	r.sampler.Tick(now)
}

// Flush drains every log's buffered stream output.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	for _, l := range r.logs {
		if err := l.Flush(); err != nil {
			return err
		}
	}
	return nil
}
