package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// representativeEvents returns one fully populated event per kind, so
// the round-trip test exercises every field the schema defines.
func representativeEvents() []Event {
	return []Event{
		{T: 10, Kind: KindDRAMCmd, Cmd: "ACT", Bank: 3, Row: 1289},
		{T: 11, Kind: KindDRAMCmd, Cmd: "RD", Bank: 3, Row: 1289},
		{T: 3120, Kind: KindRefresh, Shift: 2},
		{T: 3121, Kind: KindRefresh, Bank: 5, Shift: 0},
		{T: 4000, Kind: KindRefreshRate, Shift: 4},
		{T: 5000, Kind: KindMECCTransition, Phase: "idle"},
		{T: 5001, Kind: KindSweepStart, Regions: 17},
		{T: 6200, Kind: KindSweepEnd, Lines: 4096, Regions: 17, Cycles: 1199},
		{T: 64_000_000, Kind: KindSMDWindow, MPKC: 1.25},
		{T: 128_000_000, Kind: KindSMDEnable, MPKC: 7.5},
		{T: 192_000_000, Kind: KindSMDDisable},
		{T: 200, Kind: KindMDTMark, Region: 42},
		{T: 777, Kind: KindDecode, Cycles: 30, Strong: true},
		{T: 778, Kind: KindDecode, Cycles: 2},
		{T: 900, Kind: KindSpanStart, Span: 7, Parent: 3, Name: "sweep"},
		{T: 2100, Kind: KindSpanEnd, Span: 7, Parent: 3, Name: "sweep", Cycles: 1200},
	}
}

// TestEventSchemaRoundTrip is the schema contract: every kind's JSONL
// encoding parses back into the identical Event, and the hand-rolled
// encoder emits byte-for-byte what encoding/json would.
func TestEventSchemaRoundTrip(t *testing.T) {
	events := representativeEvents()

	// Cover every declared kind at least once.
	seen := map[Kind]bool{}
	for _, e := range events {
		seen[e.Kind] = true
	}
	for _, k := range Kinds() {
		if !seen[k] {
			t.Errorf("representativeEvents misses kind %s", k)
		}
	}

	var stream bytes.Buffer
	for _, e := range events {
		line := e.AppendJSON(nil)
		std, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, std) {
			t.Errorf("%s: hand-rolled %s != encoding/json %s", e.Kind, line, std)
		}
		stream.Write(line)
		stream.WriteByte('\n')
	}

	got, err := ReadJSONL(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, events)
	}
}

func TestReadJSONLErrors(t *testing.T) {
	for _, in := range []string{
		"{bad json\n",
		`{"t":1,"kind":"no_such_kind"}` + "\n",
		"{}\n",
		`{"t":1}` + "\n",
	} {
		if _, err := ReadJSONL(strings.NewReader(in)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("ReadJSONL(%q) = %v, want ErrBadTrace", in, err)
		}
	}
	got, err := ReadJSONL(strings.NewReader("\n  \n"))
	if err != nil || len(got) != 0 {
		t.Errorf("blank lines: got %v, %v", got, err)
	}
}

func TestParseKindMask(t *testing.T) {
	m, err := ParseKindMask("all")
	if err != nil || m != MaskAll {
		t.Errorf("all: %v, %v", m, err)
	}
	m, err = ParseKindMask("decode, smd_enable")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Has(KindDecode) || !m.Has(KindSMDEnable) || m.Has(KindDRAMCmd) {
		t.Errorf("mask = %b", m)
	}
	if _, err := ParseKindMask("decode,bogus"); err == nil {
		t.Error("bogus kind: want error")
	}
	if MaskOf(KindRefresh).Has(KindDRAMCmd) {
		t.Error("MaskOf selects extra kinds")
	}
}

func TestKindParseStringInverse(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%s) = %v, %v", k, got, err)
		}
	}
	if _, err := ParseKind("Kind(0)"); err == nil {
		t.Error("invalid name: want error")
	}
}

func TestEventLogMaskCountsRetention(t *testing.T) {
	l := NewEventLog(MaskOf(KindDecode, KindSMDEnable), 2)
	rec := New()
	rec.AddEventLog(l)
	if rec.Tracing(KindDRAMCmd) || !rec.Tracing(KindDecode) {
		t.Fatal("Tracing must follow the log's mask")
	}
	for i := 0; i < 5; i++ {
		rec.Emit(Event{T: uint64(i), Kind: KindDecode})
	}
	rec.Emit(Event{T: 9, Kind: KindSMDEnable})
	rec.Emit(Event{T: 10, Kind: KindSMDEnable})
	rec.Emit(Event{T: 12, Kind: KindDRAMCmd}) // masked out entirely

	if got := l.Count(KindDecode); got != 5 {
		t.Errorf("decode count = %d", got)
	}
	if got := l.Count(KindDRAMCmd); got != 0 {
		t.Errorf("masked kind counted: %d", got)
	}
	if got := l.Total(); got != 7 {
		t.Errorf("total = %d", got)
	}
	// The window holds the newest two kept events, oldest first.
	ev := l.Events()
	if len(ev) != 2 || ev[0].T != 9 || ev[1].T != 10 {
		t.Errorf("retained = %+v", ev)
	}

	// A log with window 0 counts and retains nothing.
	trace := NewEventLog(MaskAll, 0)
	rec.AddEventLog(trace)
	rec.Emit(Event{T: 13, Kind: KindDRAMCmd})
	if trace.Count(KindDRAMCmd) != 1 || len(trace.Events()) != 0 {
		t.Errorf("window-0 log: count %d, retained %+v", trace.Count(KindDRAMCmd), trace.Events())
	}
}

func TestEventLogStream(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(MaskAll, 0)
	l.SetStream(&buf)
	rec := New()
	rec.AddEventLog(l)
	if !rec.Tracing(KindRefresh) {
		t.Fatal("Tracing must be true with a log attached")
	}
	rec.Emit(Event{T: 1, Kind: KindRefresh, Shift: 1})
	rec.Emit(Event{T: 2, Kind: KindDecode, Cycles: 30})
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Kind != KindRefresh || got[1].Cycles != 30 {
		t.Errorf("streamed = %+v", got)
	}
}

func TestFlightRecorderRoundTrip(t *testing.T) {
	f := NewEventLog(MaskAll, 256)
	want := representativeEvents()
	for _, e := range want {
		f.add(e)
	}
	got := f.Events()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flight round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	if f.Total() != uint64(len(want)) {
		t.Errorf("Total() = %d, want %d", f.Total(), len(want))
	}
}

func TestFlightRecorderWrapKeepsNewest(t *testing.T) {
	f := NewEventLog(MaskAll, 64)
	const total = 200
	for i := 0; i < total; i++ {
		f.add(Event{T: uint64(i), Kind: KindDecode, Cycles: uint64(i) + 1})
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
// than a Fig 7 run has (112 job labels plus run/active/exhibit), and
// more than the 256 an intern table once bounded them to, and checks
// every one survives a WriteJSONL dump.
func TestFlightRecorderNamesRoundTrip(t *testing.T) {
	const distinct = 300
	f := NewEventLog(FlightKinds, distinct)
	for i := 0; i < distinct; i++ {
		f.add(Event{T: uint64(i), Kind: KindSpanStart, Span: uint64(i) + 1, Name: fmt.Sprintf("job:bench%d/mecc", i)})
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

// TestFlightRecorderConcurrentRecordAndDump races eight writers through
// Recorder.Emit into a full window against a reader. Every field of an
// event derives from one value (writer id and index), so an event
// stitched together from two writes shows fields that disagree.
func TestFlightRecorderConcurrentRecordAndDump(t *testing.T) {
	f := NewEventLog(MaskAll, 64)
	r := New()
	r.AddEventLog(f)
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
				r.Emit(event(w, i))
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
	if got := f.Total(); got != writers*records {
		t.Errorf("Total() = %d, want %d", got, writers*records)
	}
	events := f.Events()
	if len(events) != 64 {
		t.Errorf("retained %d events, want a full window of 64", len(events))
	}
	for _, e := range events {
		if !check(e) {
			break
		}
	}
}

func TestFlightRecorderWriteJSONLParses(t *testing.T) {
	f := NewEventLog(MaskAll, 64)
	want := representativeEvents()
	for _, e := range want {
		f.add(e)
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

// TestFlightRecorderZeroAllocs pins the default flight path's
// allocation contract: a guarded Emit of a FlightKinds event into a
// full window, and an Emit on a nil recorder, allocate nothing.
func TestFlightRecorderZeroAllocs(t *testing.T) {
	e := Event{T: 1, Kind: KindSpanEnd, Cmd: "RD", Phase: "active", Name: "sweep", Cycles: 30}
	var nilRec *Recorder
	if n := testing.AllocsPerRun(1000, func() { nilRec.Emit(e) }); n != 0 {
		t.Errorf("nil Recorder.Emit allocates %v/op", n)
	}
	f := NewEventLog(FlightKinds, 1024)
	r := New()
	r.AddEventLog(f)
	for i := 0; i < 1024; i++ {
		r.Emit(e) // fill the window
	}
	if n := testing.AllocsPerRun(1000, func() {
		if r.Tracing(e.Kind) {
			r.Emit(e)
		}
	}); n != 0 {
		t.Errorf("Emit into a full flight window allocates %v/op", n)
	}
	before := f.Total()
	if r.Tracing(e.Kind) {
		r.Emit(e)
	}
	if f.Total() != before+1 {
		t.Error("guarded Emit of a FlightKinds event did not reach the window")
	}
}

// TestFlightOnlyRecorderGatesKinds pins the flight recorder's fixed
// kind set: a flight-only recorder traces exactly FlightKinds, and Emit
// drops the per-command, per-read and per-tREFI kinds before they
// reach the window.
func TestFlightOnlyRecorderGatesKinds(t *testing.T) {
	f := NewEventLog(FlightKinds, 64)
	r := New()
	r.AddEventLog(f)
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
		t.Errorf("window kinds = %v, want %v", got, want)
	}
}
