package obs

import "testing"

func TestSpanHierarchyEvents(t *testing.T) {
	r := New()
	log := NewEventLog(MaskAll, 16)
	r.AddEventLog(log)

	run := r.StartSpan("run", 100)
	if run == nil {
		t.Fatal("StartSpan returned nil with tracing on")
	}
	phase := run.Child("active", 110)
	sweep := phase.Child("sweep", 150)
	sweep.End(190)
	phase.End(200)
	run.End(400)

	evs := log.Events()
	if len(evs) != 6 {
		t.Fatalf("got %d events, want 6: %+v", len(evs), evs)
	}
	starts := map[string]Event{}
	ends := map[string]Event{}
	for _, e := range evs {
		switch e.Kind {
		case KindSpanStart:
			starts[e.Name] = e
		case KindSpanEnd:
			ends[e.Name] = e
		default:
			t.Fatalf("unexpected kind %s", e.Kind)
		}
	}
	if starts["active"].Parent != starts["run"].Span {
		t.Errorf("active's parent = %d, want run's id %d", starts["active"].Parent, starts["run"].Span)
	}
	if starts["sweep"].Parent != starts["active"].Span {
		t.Errorf("sweep's parent = %d, want active's id %d", starts["sweep"].Parent, starts["active"].Span)
	}
	if got := ends["sweep"].Cycles; got != 40 {
		t.Errorf("sweep duration = %d, want 40", got)
	}
	if ends["run"].Span != starts["run"].Span {
		t.Errorf("end/start span ids differ for run: %d vs %d", ends["run"].Span, starts["run"].Span)
	}
	if run.ID() == 0 || run.Name() != "run" {
		t.Errorf("span accessors: id=%d name=%q", run.ID(), run.Name())
	}
}

func TestSpanDisabledIsNil(t *testing.T) {
	var nilRec *Recorder
	if s := nilRec.StartSpan("run", 0); s != nil {
		t.Error("nil recorder must hand out nil spans")
	}
	r := New() // metrics only: not tracing
	if r.Tracing(KindSpanStart) {
		t.Fatal("metrics-only recorder should not be tracing")
	}
	if s := r.StartSpan("run", 0); s != nil {
		t.Error("non-tracing recorder must hand out nil spans")
	}
	var s *Span
	if c := s.Child("x", 1); c != nil {
		t.Error("nil span must hand out nil children")
	}
	s.End(2) // must not panic
	if s.ID() != 0 || s.Name() != "" {
		t.Error("nil span accessors must return zero values")
	}
}

func TestSpanFlightOnlyTracing(t *testing.T) {
	r := New()
	f := NewEventLog(FlightKinds, 64)
	r.AddEventLog(f)
	if !r.Tracing(KindSpanStart) {
		t.Fatal("flight-only recorder must report Tracing(KindSpanStart)")
	}
	sp := r.StartSpan("run", 5)
	sp.End(25)
	evs := f.Events()
	if len(evs) != 2 || evs[0].Kind != KindSpanStart || evs[1].Kind != KindSpanEnd {
		t.Fatalf("flight window = %+v, want span start+end", evs)
	}
	if evs[1].Cycles != 20 {
		t.Errorf("duration = %d, want 20", evs[1].Cycles)
	}
}

// TestNilSpanZeroAllocs guards the disabled-span hot path: a nil span
// tree costs no allocations.
func TestNilSpanZeroAllocs(t *testing.T) {
	var s *Span
	if n := testing.AllocsPerRun(1000, func() {
		c := s.Child("sweep", 1)
		c.End(2)
	}); n != 0 {
		t.Errorf("nil span Child/End allocates %v/op", n)
	}
	var r *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		sp := r.StartSpan("run", 1)
		sp.End(2)
	}); n != 0 {
		t.Errorf("nil recorder StartSpan/End allocates %v/op", n)
	}
}
