package obs

// controller mimics an instrumented subsystem holding a possibly-nil
// recorder.
type controller struct {
	obs *Recorder
	now uint64
}

// unguarded builds the event even when tracing is off.
func (c *controller) unguarded() {
	c.obs.Emit(Event{T: c.now, Kind: "refresh"}) // want `unguarded c.obs.Emit constructs its event`
}

// guardedTracing is the sanctioned pattern.
func (c *controller) guardedTracing() {
	if c.obs.Tracing("refresh") {
		c.obs.Emit(Event{T: c.now, Kind: "refresh"})
	}
}

// guardedNil also proves the recorder is live before building work.
func (c *controller) guardedNil() {
	if c.obs != nil {
		c.obs.Emit(Event{T: c.now, Kind: "refresh"})
	}
}

// prebuilt events cost nothing at the call site, so a bare Emit of a
// plain variable is fine: the recorder's own nil guard handles it.
func (c *controller) prebuilt(e Event) {
	c.obs.Emit(e)
}

// suppressed shows the escape hatch for cold paths that prefer the
// simpler call shape.
func (c *controller) suppressed() {
	c.obs.Emit(Event{T: c.now, Kind: "cold"}) //meccvet:allow nilhook -- cold path, one event per run
}
