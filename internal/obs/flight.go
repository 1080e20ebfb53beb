package obs

import (
	"io"
	"math"
	"sort"
	"sync/atomic"
)

// flightWords is the per-slot word count of the flight-recorder ring.
// An Event is flattened into fixed atomic words so concurrent writers
// never share mutable non-atomic memory (the race detector accepts the
// ring) and the record path allocates nothing:
//
//	w0  seq: writer ticket+1; 0 never written, flightBusy mid-write
//	w1  T
//	w2  packed kind | strong | shift | cmd/phase/name intern indices
//	w3  bank (low 32, two's complement) | regions (high 32)
//	w4  row
//	w5  lines
//	w6  cycles
//	w7  mpkc (float64 bits)
//	w8  region
//	w9  span
//	w10 parent
//	w11 reserved
const flightWords = 12

// flightSlot is one ring entry; see flightWords for the layout.
type flightSlot struct {
	w [flightWords]atomic.Uint64
}

// Intern-table geometry: strings carried by events (DRAM mnemonics,
// phase names, span labels) are mapped to small indices so slots stay
// plain words. Index 0 is the empty string; internOverflow marks a
// string that arrived after the table filled and decodes as "?".
const (
	internSlots    = 64
	internOverflow = internSlots - 1
)

// DefaultFlightEvents is the default ring capacity: the post-mortem
// window covers the last ~16k events (~1.5 MiB resident).
const DefaultFlightEvents = 16384

// FlightRecorder is a fixed-size lock-free ring of the most recent
// events, meant to be always on: the record path is wait-free, takes no
// locks, performs no allocation in steady state, and a nil
// *FlightRecorder is a no-op. When something goes wrong — a checker
// invariant fires, a panic unwinds, SIGQUIT arrives — WriteJSONL dumps
// the window as a replayable JSONL trace.
//
// Writers take a ticket (pos.Add), claim its slot with a CAS of the seq
// word to flightBusy, store the fields, then publish seq=ticket+1; a
// writer that finds the slot busy (a writer one ring lap away is still
// storing) drops its event. Readers copy a slot and keep it only if seq
// was published and unchanged across the copy. A slot overwritten during
// the dump is simply dropped, the right trade for a post-mortem window.
//
//meccvet:nilsafe
type FlightRecorder struct {
	mask    uint64
	pos     atomic.Uint64
	strings [internSlots]atomic.Pointer[string]
	slots   []flightSlot
}

// NewFlightRecorder builds a ring retaining the most recent `capacity`
// events, rounded up to a power of two (minimum 64). capacity <= 0
// selects DefaultFlightEvents.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightEvents
	}
	n := 64
	for n < capacity {
		n <<= 1
	}
	return &FlightRecorder{mask: uint64(n - 1), slots: make([]flightSlot, n)}
}

// Cap returns the ring capacity in events (0 on a nil receiver).
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.slots)
}

// Recorded returns how many events have ever been recorded (the ring
// retains the most recent Cap of them).
func (f *FlightRecorder) Recorded() uint64 {
	if f == nil {
		return 0
	}
	return f.pos.Load()
}

// intern maps s to a stable small index. First occurrence of a string
// claims a table entry (one allocation, once per distinct string);
// afterwards lookups are read-only scans of a short array. A full
// table degrades to internOverflow, never an error.
func (f *FlightRecorder) intern(s string) uint64 {
	if s == "" {
		return 0
	}
	for i := 1; i < internOverflow; i++ {
		p := f.strings[i].Load()
		if p == nil {
			//meccvet:allow hotpath -- first occurrence of a distinct string interns it once; steady-state lookups take the *p == s path below and allocate nothing
			q := new(string)
			*q = s
			if f.strings[i].CompareAndSwap(nil, q) {
				return uint64(i)
			}
			p = f.strings[i].Load()
		}
		if *p == s {
			return uint64(i)
		}
	}
	return internOverflow
}

// internLookup decodes an intern index back to its string.
func (f *FlightRecorder) internLookup(i uint64) string {
	if i == 0 {
		return ""
	}
	if i >= internOverflow {
		return "?"
	}
	if p := f.strings[i].Load(); p != nil {
		return *p
	}
	return "?"
}

// Record stores one event into the ring. Wait-free, lock-free and
// allocation-free in steady state, and a no-op on a nil receiver; it
// drops the event when a lapping writer still holds its slot.
//
//meccvet:hotpath
func (f *FlightRecorder) Record(e Event) {
	if f == nil {
		return
	}
	ticket := f.pos.Add(1) - 1
	s := &f.slots[ticket&f.mask]
	if seq := s.w[0].Load(); seq > ticket || !s.w[0].CompareAndSwap(seq, flightBusy) {
		return // busy, or already holding a newer event
	}
	s.w[1].Store(e.T)
	packed := uint64(e.Kind) | (uint64(e.Shift)&0xff)<<16
	if e.Strong {
		packed |= 1 << 8
	}
	packed |= f.intern(e.Cmd) << 24
	packed |= f.intern(e.Phase) << 32
	packed |= f.intern(e.Name) << 40
	s.w[2].Store(packed)
	s.w[3].Store(uint64(uint32(int32(e.Bank))) | uint64(uint32(int32(e.Regions)))<<32)
	s.w[4].Store(uint64(int64(e.Row)))
	s.w[5].Store(e.Lines)
	s.w[6].Store(e.Cycles)
	s.w[7].Store(math.Float64bits(e.MPKC))
	s.w[8].Store(e.Region)
	s.w[9].Store(e.Span)
	s.w[10].Store(e.Parent)
	s.w[0].Store(ticket + 1)
}

// flightBusy is the seq word of a slot a writer has claimed but not yet
// published. It exceeds every ticket, so Record's claim test rejects it.
const flightBusy = ^uint64(0)

// Events returns a consistent snapshot of the retained window in record
// order (oldest first). Busy slots, and slots a writer claims while they
// are being copied, are dropped. Nil receivers return nil.
func (f *FlightRecorder) Events() []Event {
	if f == nil {
		return nil
	}
	type rec struct {
		seq uint64
		e   Event
	}
	out := make([]rec, 0, len(f.slots))
	for i := range f.slots {
		s := &f.slots[i]
		seq := s.w[0].Load()
		if seq == 0 || seq == flightBusy {
			continue // never written, or a writer holds it
		}
		var w [flightWords]uint64
		for j := 1; j < flightWords; j++ {
			w[j] = s.w[j].Load()
		}
		if s.w[0].Load() != seq {
			continue // torn: writer landed mid-copy
		}
		packed := w[2]
		e := Event{
			T:       w[1],
			Kind:    Kind(packed & 0xff),
			Strong:  packed&(1<<8) != 0,
			Shift:   int(int8(packed >> 16)),
			Cmd:     f.internLookup((packed >> 24) & 0xff),
			Phase:   f.internLookup((packed >> 32) & 0xff),
			Name:    f.internLookup((packed >> 40) & 0xff),
			Bank:    int(int32(uint32(w[3]))),
			Regions: int(int32(uint32(w[3] >> 32))),
			Row:     int(int64(w[4])),
			Lines:   w[5],
			Cycles:  w[6],
			MPKC:    math.Float64frombits(w[7]),
			Region:  w[8],
			Span:    w[9],
			Parent:  w[10],
		}
		out = append(out, rec{seq: seq, e: e})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	evs := make([]Event, len(out))
	for i, r := range out {
		evs[i] = r.e
	}
	return evs
}

// WriteJSONL dumps the retained window as JSONL (the same schema the
// event log streams), oldest event first. A nil receiver writes
// nothing.
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	if f == nil {
		return nil
	}
	var buf []byte
	for _, e := range f.Events() {
		buf = e.appendJSON(buf[:0])
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
