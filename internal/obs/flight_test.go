package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestFlightRecorderRoundTrip(t *testing.T) {
	f := NewFlightRecorder(256)
	want := representativeEvents()
	for _, e := range want {
		f.Record(e)
	}
	got := f.Events()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flight round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	if f.Recorded() != uint64(len(want)) {
		t.Errorf("Recorded() = %d, want %d", f.Recorded(), len(want))
	}
}

func TestFlightRecorderCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultFlightEvents}, {-1, DefaultFlightEvents},
		{1, 64}, {64, 64}, {65, 128}, {1000, 1024},
	} {
		if got := NewFlightRecorder(tc.in).Cap(); got != tc.want {
			t.Errorf("NewFlightRecorder(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
	if (*FlightRecorder)(nil).Cap() != 0 {
		t.Error("nil Cap() != 0")
	}
}

func TestFlightRecorderWrapKeepsNewest(t *testing.T) {
	f := NewFlightRecorder(64)
	const total = 200
	for i := 0; i < total; i++ {
		f.Record(Event{T: uint64(i), Kind: KindDecode, Cycles: uint64(i) + 1})
	}
	got := f.Events()
	if len(got) != 64 {
		t.Fatalf("retained %d events, want 64", len(got))
	}
	for i, e := range got {
		if want := uint64(total - 64 + i); e.T != want {
			t.Fatalf("event %d: T=%d, want %d (oldest-first order)", i, e.T, want)
		}
	}
}

// TestFlightRecorderNamesRoundTrip records more distinct span names
// than a Fig 7 run has (112 job labels plus run/active/exhibit) and
// checks every one survives a WriteJSONL dump: none may decode as "?".
func TestFlightRecorderNamesRoundTrip(t *testing.T) {
	const distinct = 200
	f := NewFlightRecorder(distinct)
	for i := 0; i < distinct; i++ {
		f.Record(Event{T: uint64(i), Kind: KindSpanStart, Span: uint64(i) + 1, Name: fmt.Sprintf("job:bench%d/mecc", i)})
	}
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != distinct {
		t.Fatalf("dumped %d events, want %d", len(got), distinct)
	}
	for i, e := range got {
		if want := fmt.Sprintf("job:bench%d/mecc", i); e.Name != want {
			t.Errorf("event %d: name %q, want %q", i, e.Name, want)
		}
	}
}

func TestFlightRecorderInternOverflow(t *testing.T) {
	f := NewFlightRecorder(2 * internSlots)
	const distinct = internSlots + 10
	for i := 0; i < distinct; i++ {
		f.Record(Event{T: uint64(i), Kind: KindSpanStart, Span: uint64(i) + 1, Name: fmt.Sprintf("span-%d", i)})
	}
	events := f.Events()
	if len(events) != distinct {
		t.Fatalf("retained %d events, want %d", len(events), distinct)
	}
	var overflowed int
	for i, e := range events {
		switch e.Name {
		case fmt.Sprintf("span-%d", i):
		case "?":
			overflowed++
		default:
			t.Fatalf("event %d: unexpected name %q", i, e.Name)
		}
	}
	if overflowed == 0 {
		t.Error("expected some names to overflow the intern table")
	}
	if events[0].Name != "span-0" {
		t.Errorf("early names should intern cleanly, got %q", events[0].Name)
	}
}

// TestFlightRecorderConcurrentRecordAndDump races writers one ring lap
// apart against a reader. Every field of an event derives from one
// value (writer id and index), so an event stitched together from two
// writes shows fields that disagree.
func TestFlightRecorderConcurrentRecordAndDump(t *testing.T) {
	f := NewFlightRecorder(64)
	const writers, records = 8, 50000
	names := make([]string, writers)
	for w := range names {
		names[w] = fmt.Sprintf("writer-%d", w)
	}
	event := func(w, i int) Event {
		v := uint64(w)<<32 | uint64(i)
		return Event{
			T: v, Kind: KindDecode, Cmd: names[w], Phase: names[w], Name: names[w],
			Bank: w, Row: i, Shift: int(int8(i)), Regions: -i, Strong: i%2 == 1,
			Lines: v + 1, Cycles: v + 2, MPKC: float64(v) / 2, Region: v + 3, Span: v + 4, Parent: v + 5,
		}
	}
	check := func(e Event) bool {
		w, i := int(e.T>>32), int(uint32(e.T))
		if w >= writers || i >= records || e != event(w, i) {
			t.Errorf("torn event leaked: %+v", e)
			return false
		}
		return true
	}
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < records; i++ {
				f.Record(event(w, i))
			}
		}(w)
	}
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range f.Events() {
				if !check(e) {
					return
				}
			}
		}
	}()
	writeWG.Wait()
	close(stop)
	readWG.Wait()
	if got := f.Recorded(); got != writers*records {
		t.Errorf("Recorded() = %d, want %d", got, writers*records)
	}
	events := f.Events()
	if len(events) != 64 {
		t.Errorf("retained %d events, want full ring of 64", len(events))
	}
	for _, e := range events {
		if !check(e) {
			break
		}
	}
}

func TestFlightRecorderWriteJSONLParses(t *testing.T) {
	f := NewFlightRecorder(64)
	want := representativeEvents()
	for _, e := range want {
		f.Record(e)
	}
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("JSONL dump mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestFlightRecorderZeroAllocs pins the record path's allocation
// contract: nil-disabled and enabled steady-state records both cost 0
// allocations (interning of a string's first occurrence is the only
// exception, warmed here before measuring). The event's kind is one the
// ring keeps, so the guarded Emit below really records.
func TestFlightRecorderZeroAllocs(t *testing.T) {
	var nilF *FlightRecorder
	e := Event{T: 1, Kind: KindSpanEnd, Cmd: "RD", Phase: "active", Name: "sweep", Cycles: 30}
	if n := testing.AllocsPerRun(1000, func() { nilF.Record(e) }); n != 0 {
		t.Errorf("nil FlightRecorder.Record allocates %v/op", n)
	}
	f := NewFlightRecorder(1024)
	f.Record(e) // warm the intern table
	if n := testing.AllocsPerRun(1000, func() { f.Record(e) }); n != 0 {
		t.Errorf("enabled FlightRecorder.Record allocates %v/op", n)
	}
	r := &Recorder{flight: f}
	if n := testing.AllocsPerRun(1000, func() {
		if r.Tracing(e.Kind) {
			r.Emit(e)
		}
	}); n != 0 {
		t.Errorf("Emit into flight-only recorder allocates %v/op", n)
	}
	before := f.Recorded()
	if r.Tracing(e.Kind) {
		r.Emit(e)
	}
	if f.Recorded() != before+1 {
		t.Error("guarded Emit of a FlightKinds event did not reach the ring")
	}
}

// TestFlightOnlyRecorderGatesKinds pins the ring's fixed kind set: a
// flight-only recorder traces exactly FlightKinds, and Emit drops the
// per-command, per-read and per-tREFI kinds before they reach the ring.
func TestFlightOnlyRecorderGatesKinds(t *testing.T) {
	f := NewFlightRecorder(64)
	r := New()
	r.SetFlightRecorder(f)
	for _, k := range []Kind{KindDRAMCmd, KindDecode, KindRefresh} {
		if FlightKinds.Has(k) || r.Tracing(k) {
			t.Errorf("flight-only recorder traces %s", k)
		}
	}
	var want []Kind
	for _, k := range Kinds() {
		if r.Tracing(k) != FlightKinds.Has(k) {
			t.Errorf("Tracing(%s) = %v, FlightKinds has it: %v", k, r.Tracing(k), FlightKinds.Has(k))
		}
		r.Emit(Event{T: uint64(k), Kind: k})
		if FlightKinds.Has(k) {
			want = append(want, k)
		}
	}
	var got []Kind
	for _, e := range f.Events() {
		got = append(got, e.Kind)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ring kinds = %v, want %v", got, want)
	}
}
