package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Kind identifies a structured event type.
type Kind uint8

// Event kinds. The zero Kind is invalid.
const (
	// KindDRAMCmd is one issued DRAM command (ACT/PRE/RD/WR/REF/REFpb);
	// T is in DRAM cycles.
	KindDRAMCmd Kind = iota + 1
	// KindRefresh is one refresh operation issued by the memory
	// controller (T in DRAM cycles; Bank is set for per-bank refresh;
	// Shift is the divider in force).
	KindRefresh
	// KindRefreshRate is a refresh-rate change: the controller's
	// auto-refresh divider or the channel's self-refresh divider moved
	// to Shift.
	KindRefreshRate
	// KindMECCTransition is a phase change of the MECC controller;
	// Phase is the phase being entered ("active" or "idle"), T in CPU
	// cycles.
	KindMECCTransition
	// KindSweepStart marks the beginning of an ECC-Upgrade sweep at
	// idle entry (T in CPU cycles).
	KindSweepStart
	// KindSweepEnd closes a sweep: Lines converted, Regions visited,
	// Cycles the modeled sweep duration.
	KindSweepEnd
	// KindSMDWindow is a completed SMD monitoring quantum whose MPKC
	// sample stayed at or below the threshold (downgrade stays off).
	KindSMDWindow
	// KindSMDEnable is an ECC-Downgrade enable decision; MPKC carries
	// the sample that tripped the threshold (absent when downgrades are
	// enabled unconditionally because SMD is off).
	KindSMDEnable
	// KindSMDDisable is an ECC-Downgrade disable decision (idle entry
	// re-protects all memory).
	KindSMDDisable
	// KindMDTMark is a region's first downgrade since the last sweep
	// marking it in the Memory Downgrade Tracking table.
	KindMDTMark
	// KindDecode is one demand-read ECC decode; Cycles is the decode
	// latency in CPU cycles and Strong selects the ECC-6 decoder.
	KindDecode
	// KindSpanStart opens a hierarchical trace span (obs.Span): Span is
	// the span id, Parent the enclosing span's id (0 for a root), Name
	// the span label. T is in the emitter's clock domain.
	KindSpanStart
	// KindSpanEnd closes a span: Span and Name echo the start event and
	// Cycles is the duration in the emitter's clock domain.
	KindSpanEnd

	maxKind = KindSpanEnd
)

// kindNames maps kinds to their wire names.
var kindNames = [maxKind + 1]string{
	KindDRAMCmd:        "dram_cmd",
	KindRefresh:        "refresh",
	KindRefreshRate:    "refresh_rate",
	KindMECCTransition: "mecc_transition",
	KindSweepStart:     "sweep_start",
	KindSweepEnd:       "sweep_end",
	KindSMDWindow:      "smd_window",
	KindSMDEnable:      "smd_enable",
	KindSMDDisable:     "smd_disable",
	KindMDTMark:        "mdt_mark",
	KindDecode:         "decode",
	KindSpanStart:      "span_start",
	KindSpanEnd:        "span_end",
}

// String renders the kind's wire name.
func (k Kind) String() string {
	if k >= 1 && k <= maxKind {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalText renders the wire name (JSON string encoding).
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a wire name.
func (k *Kind) UnmarshalText(b []byte) error {
	kk, err := ParseKind(string(b))
	if err != nil {
		return err
	}
	*k = kk
	return nil
}

// ErrBadKind is wrapped by every error ParseKind and ParseKindMask
// return.
var ErrBadKind = errors.New("obs: unknown event kind")

// ParseKind maps a wire name back to its Kind.
func ParseKind(s string) (Kind, error) {
	for k := Kind(1); k <= maxKind; k++ {
		if kindNames[k] == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("%w %q", ErrBadKind, s)
}

// Kinds returns every valid kind in declaration order.
func Kinds() []Kind {
	out := make([]Kind, 0, maxKind)
	for k := Kind(1); k <= maxKind; k++ {
		out = append(out, k)
	}
	return out
}

// KindMask selects a subset of event kinds.
type KindMask uint32

// MaskAll selects every kind.
const MaskAll = ^KindMask(0)

// MaskOf builds a mask from kinds.
func MaskOf(kinds ...Kind) KindMask {
	var m KindMask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Has reports whether the mask selects the kind.
func (m KindMask) Has(k Kind) bool { return m&(1<<k) != 0 }

// ParseKindMask parses a comma-separated list of wire names; "all" (or
// an empty string) selects every kind. An unknown name fails with
// ErrBadKind.
func ParseKindMask(s string) (KindMask, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return MaskAll, nil
	}
	var m KindMask
	for _, part := range strings.Split(s, ",") {
		k, err := ParseKind(strings.TrimSpace(part))
		if err != nil {
			return 0, err
		}
		m |= 1 << k
	}
	return m, nil
}

// Event is one structured trace record. Fields beyond T and Kind are
// populated per kind (see the Kind constants); unused fields stay at
// their zero value and are omitted from the JSONL encoding.
type Event struct {
	// T is the timestamp in the emitter's clock domain: DRAM cycles for
	// DRAM-command and refresh events, CPU cycles otherwise.
	T uint64 `json:"t"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// Cmd is the DRAM command mnemonic (KindDRAMCmd).
	Cmd string `json:"cmd,omitempty"`
	// Bank and Row locate DRAM commands (Row is meaningful for ACT/RD/WR).
	Bank int `json:"bank,omitempty"`
	Row  int `json:"row,omitempty"`
	// Shift is a refresh divider in bits (KindRefresh, KindRefreshRate).
	Shift int `json:"shift,omitempty"`
	// Phase is the phase entered by a MECC transition.
	Phase string `json:"phase,omitempty"`
	// Lines and Regions describe an ECC-Upgrade sweep (KindSweepEnd).
	Lines   uint64 `json:"lines,omitempty"`
	Regions int    `json:"regions,omitempty"`
	// Cycles is a duration: sweep length (KindSweepEnd) or decode
	// latency (KindDecode), in CPU cycles.
	Cycles uint64 `json:"cycles,omitempty"`
	// MPKC is the misses-per-kilo-cycle sample behind an SMD decision.
	MPKC float64 `json:"mpkc,omitempty"`
	// Region is the MDT region index (KindMDTMark).
	Region uint64 `json:"region,omitempty"`
	// Strong selects the ECC-6 decoder (KindDecode).
	Strong bool `json:"strong,omitempty"`
	// Span and Parent are hierarchical trace span ids (KindSpanStart,
	// KindSpanEnd); Parent is 0 for a root span.
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	// Name is the span label (KindSpanStart, KindSpanEnd).
	Name string `json:"name,omitempty"`
}

// appendJSON appends the event's JSONL encoding (sans newline) to b.
// The output matches encoding/json for the Event struct tags, so
// streams written here round-trip through ReadJSONL; hand-rolling keeps
// the enabled-tracing hot path free of reflection.
func (e *Event) appendJSON(b []byte) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendUint(b, e.T, 10)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, '"')
	if e.Cmd != "" {
		b = append(b, `,"cmd":"`...)
		b = append(b, e.Cmd...) // mnemonics are JSON-safe
		b = append(b, '"')
	}
	if e.Bank != 0 {
		b = append(b, `,"bank":`...)
		b = strconv.AppendInt(b, int64(e.Bank), 10)
	}
	if e.Row != 0 {
		b = append(b, `,"row":`...)
		b = strconv.AppendInt(b, int64(e.Row), 10)
	}
	if e.Shift != 0 {
		b = append(b, `,"shift":`...)
		b = strconv.AppendInt(b, int64(e.Shift), 10)
	}
	if e.Phase != "" {
		b = append(b, `,"phase":"`...)
		b = append(b, e.Phase...)
		b = append(b, '"')
	}
	if e.Lines != 0 {
		b = append(b, `,"lines":`...)
		b = strconv.AppendUint(b, e.Lines, 10)
	}
	if e.Regions != 0 {
		b = append(b, `,"regions":`...)
		b = strconv.AppendInt(b, int64(e.Regions), 10)
	}
	if e.Cycles != 0 {
		b = append(b, `,"cycles":`...)
		b = strconv.AppendUint(b, e.Cycles, 10)
	}
	if e.MPKC != 0 {
		b = append(b, `,"mpkc":`...)
		b = strconv.AppendFloat(b, e.MPKC, 'g', -1, 64)
	}
	if e.Region != 0 {
		b = append(b, `,"region":`...)
		b = strconv.AppendUint(b, e.Region, 10)
	}
	if e.Strong {
		b = append(b, `,"strong":true`...)
	}
	if e.Span != 0 {
		b = append(b, `,"span":`...)
		b = strconv.AppendUint(b, e.Span, 10)
	}
	if e.Parent != 0 {
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, e.Parent, 10)
	}
	if e.Name != "" {
		b = append(b, `,"name":"`...)
		b = append(b, e.Name...) // span labels are JSON-safe by construction
		b = append(b, '"')
	}
	return append(b, '}')
}

// AppendJSON exposes the streaming encoder (for tools that format
// events without an EventLog).
func (e Event) AppendJSON(b []byte) []byte { return e.appendJSON(b) }

// ErrBadTrace is wrapped by every error ReadJSONL returns.
var ErrBadTrace = errors.New("obs: bad event trace")

// ReadJSONL parses a JSONL event stream (one event per line; blank
// lines are skipped). It rejects a line that is not a JSON event or
// names no kind with an error wrapping ErrBadTrace.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("%w: line %d: %w", ErrBadTrace, line, err)
		}
		if e.Kind == 0 {
			return nil, fmt.Errorf("%w: line %d: no event kind", ErrBadTrace, line)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: read: %w", ErrBadTrace, err)
	}
	return out, nil
}

// DefaultFlightEvents is the default flight-recorder window in events.
// A whole Fig 7 run records about 760 flight events.
const DefaultFlightEvents = 16384

// FlightKinds is the fixed set of kinds the flight recorder keeps:
// every kind except the per-command (KindDRAMCmd), per-read
// (KindDecode) and per-tREFI (KindRefresh) streams. What is left —
// spans, phase transitions, sweeps, SMD decisions, MDT marks and rate
// changes — arrives at a few events per simulated phase, so the window
// holds a whole run's causal history instead of the last milliseconds
// of DRAM traffic, and leaving it on costs the hot paths one branch.
// The per-request kinds stay available through a trace log.
const FlightKinds = MaskAll &^ (1<<KindDRAMCmd | 1<<KindDecode | 1<<KindRefresh)

// EventLog is the event sink. It keeps the kinds in its mask, counts
// each kind exactly, retains the newest `window` kept events, and can
// stream every kept event as JSONL. The always-on flight recorder is
// NewEventLog(FlightKinds, n): when something goes wrong — a checker
// invariant fires, a panic unwinds, SIGQUIT arrives — WriteJSONL dumps
// its window as a replayable trace. A trace log is NewEventLog(mask, 0):
// it streams and counts, and retains nothing.
//
// The mask is fixed at construction, so Recorder.Tracing reads it
// without the lock. Everything else sits under one mutex, so parallel
// experiment sweeps can share a log. A nil *EventLog is a no-op.
type EventLog struct {
	mask   KindMask
	window int
	mu     sync.Mutex
	events []Event // once len(events) == window, a ring whose oldest entry is at next
	next   int
	w      *bufio.Writer
	buf    []byte
	counts [maxKind + 1]uint64
}

// NewEventLog builds a log that keeps the kinds in mask (MaskAll for
// every kind), retains the newest window of them (0 retains none) and
// streams nowhere.
func NewEventLog(mask KindMask, window int) *EventLog {
	return &EventLog{mask: mask, window: window}
}

// SetStream directs a JSONL copy of every kept event to w. Call Flush
// before reading the destination.
func (l *EventLog) SetStream(w io.Writer) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w = bufio.NewWriterSize(w, 1<<16)
}

// add records one event; Recorder.Emit has already checked its kind
// against the mask. The window grows to its size once and is then
// overwritten in place, so a full window records without allocating.
func (l *EventLog) add(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e.Kind <= maxKind {
		l.counts[e.Kind]++
	}
	switch {
	case len(l.events) < l.window:
		l.events = append(l.events, e)
	case l.window > 0:
		l.events[l.next] = e
		if l.next++; l.next == l.window {
			l.next = 0
		}
	}
	if l.w != nil {
		l.buf = e.appendJSON(l.buf[:0])
		l.buf = append(l.buf, '\n')
		l.w.Write(l.buf) //nolint:errcheck // surfaced by Flush
	}
}

// Events returns a copy of the retained window, oldest event first.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.events))
	out = append(out, l.events[l.next:]...)
	return append(out, l.events[:l.next]...)
}

// WriteJSONL writes the retained window as JSONL (the schema the stream
// uses), oldest event first. It copies the window under the lock and
// writes outside it, so a slow reader never stalls emitters.
func (l *EventLog) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	var buf []byte
	for _, e := range l.Events() {
		buf = e.appendJSON(buf[:0])
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// Count returns how many events of the kind were kept.
func (l *EventLog) Count(k Kind) uint64 {
	if l == nil || k > maxKind {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[k]
}

// Total returns how many events were kept.
func (l *EventLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var n uint64
	for _, c := range l.counts {
		n += c
	}
	return n
}

// Flush drains the stream buffer to the underlying writer.
func (l *EventLog) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return nil
	}
	return l.w.Flush()
}
