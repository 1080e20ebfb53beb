// Package sched provides a hierarchical timing wheel: a tickless event
// scheduler that tracks a set of future deadlines and answers "what is
// the next timing edge?" in near-constant time. The memory controller
// uses it to replace per-cycle stepping through quiescent stretches —
// refresh slots, in-flight completions, power-down entries — with a
// single jump to the earliest pending edge, the classic event-driven
// alternative to cycle-driven simulation (Varghese & Lauck's hashed and
// hierarchical timing wheels).
package sched

import "math/bits"

// Wheel geometry: six levels of 64 slots each. Level L buckets
// deadlines whose highest bit differing from the current time falls in
// [6L, 6L+6), so the wheel spans 2^36 cycles of look-ahead; rarer,
// farther events wait in an overflow list that is rescanned when the
// top-level block rolls over.
const (
	slotBits = 6
	numSlots = 1 << slotBits
	levels   = 6
	// horizonBits is the wheel's in-level look-ahead.
	horizonBits = slotBits * levels
)

// Sentinel values for the intrusive where/links fields; a non-negative
// where is level*numSlots + slot.
const (
	nilRef    = int32(-1)
	whereNone = int32(-2) // not scheduled
	whereDue  = int32(-3) // on the due list (deadline reached)
	whereFar  = int32(-4) // on the overflow list (beyond the horizon)
)

// Wheel is a hierarchical timing wheel over dense small integer event
// ids. It is not safe for concurrent use. All storage is in flat arrays
// indexed by id and grown geometrically, so steady-state Schedule /
// Cancel / Advance / PopDue perform no heap allocations.
//
// Invariants (the correctness core):
//   - an event at level L, slot s always has s > the current time's
//     slot index at level L, and shares all bits >= 6(L+1) with it;
//     hence within a level, lower slots hold strictly earlier deadlines,
//     and every level-L deadline precedes every level-(L+1) deadline;
//   - the due list holds exactly the scheduled events with deadline <=
//     Now();
//   - the far list holds exactly the events beyond the 2^36 horizon.
//
// Together these make Next exact: it is the minimum over the due list,
// the first occupied slot of the lowest occupied level, and (only when
// the wheel is otherwise empty) the far list.
type Wheel struct {
	now uint64

	// Per-event state, indexed by id.
	deadline []uint64
	next     []int32
	prev     []int32
	where    []int32 // whereNone / whereDue / whereFar / level*numSlots+slot

	head [levels * numSlots]int32
	occ  [levels]uint64 // occupancy bitmap per level

	due     int32 // head of matured-events list
	dueTail int32
	far     int32 // head of beyond-horizon list
	n       int   // scheduled events (due + wheel + far)

	stats Stats
}

// Stats are monotonic operation counters, kept as plain words (the
// wheel is single-threaded) so the hot paths stay branch- and
// atomic-free; an observer publishes deltas to shared metrics at its
// own cadence.
type Stats struct {
	// Scheduled counts Schedule calls that (re)placed an event.
	Scheduled uint64
	// Matured counts events that reached the due list.
	Matured uint64
	// Cascaded counts re-placements of not-yet-due events during
	// Advance — the hierarchical wheel's level-drop traffic.
	Cascaded uint64
}

// Stats returns the wheel's operation counters.
func (w *Wheel) Stats() Stats { return w.stats }

// NewWheel builds a wheel starting at the given time with capacity for
// ids [0, capacityHint) before any regrowth.
func NewWheel(now uint64, capacityHint int) *Wheel {
	w := &Wheel{now: now, due: nilRef, dueTail: nilRef, far: nilRef}
	for i := range w.head {
		w.head[i] = nilRef
	}
	if capacityHint > 0 {
		w.grow(int32(capacityHint - 1))
	}
	return w
}

// Now returns the wheel's current time.
func (w *Wheel) Now() uint64 { return w.now }

// Len returns the number of scheduled events (including matured ones
// not yet popped).
func (w *Wheel) Len() int { return w.n }

// grow ensures the per-event arrays cover id.
func (w *Wheel) grow(id int32) {
	need := int(id) + 1
	size := len(w.where)
	if size == 0 {
		size = 8
	}
	for size < need {
		size *= 2
	}
	deadline := make([]uint64, size)
	next := make([]int32, size)
	prev := make([]int32, size)
	where := make([]int32, size)
	copy(deadline, w.deadline)
	copy(next, w.next)
	copy(prev, w.prev)
	copy(where, w.where)
	for i := len(w.where); i < size; i++ {
		where[i] = whereNone
	}
	w.deadline, w.next, w.prev, w.where = deadline, next, prev, where
}

// Schedule (re)schedules event id at absolute time at. A deadline at or
// before Now() matures immediately (PopDue will return it). Scheduling
// an already-pending id moves it.
//
//meccvet:hotpath
func (w *Wheel) Schedule(id int32, at uint64) {
	if int(id) >= len(w.where) {
		//meccvet:allow hotpath -- doubling growth only while the id space is still expanding; steady state never grows
		w.grow(id)
	}
	if w.where[id] != whereNone {
		if w.deadline[id] == at {
			// Already pending at this deadline: placement invariants are
			// maintained by Advance, so there is nothing to move.
			return
		}
		w.unlink(id)
		w.n--
	}
	w.deadline[id] = at
	w.place(id, at)
	w.n++
	w.stats.Scheduled++
}

// Cancel removes event id if pending (matured-but-unpopped counts as
// pending). Unknown or idle ids are a no-op.
//
//meccvet:hotpath
func (w *Wheel) Cancel(id int32) {
	if int(id) >= len(w.where) || w.where[id] == whereNone {
		return
	}
	w.unlink(id)
	w.where[id] = whereNone
	w.n--
}

// place links id (with deadline at) into the due list, a wheel slot, or
// the far list, per the level-placement rule.
//
//meccvet:hotpath
func (w *Wheel) place(id int32, at uint64) {
	if at <= w.now {
		w.pushDue(id)
		return
	}
	d := at ^ w.now
	lvl := (bits.Len64(d) - 1) / slotBits
	if lvl >= levels {
		// Beyond the horizon: overflow list.
		w.where[id] = whereFar
		w.next[id] = w.far
		w.prev[id] = nilRef
		if w.far != nilRef {
			w.prev[w.far] = id
		}
		w.far = id
		return
	}
	slot := int32(at>>(uint(lvl)*slotBits)) & (numSlots - 1)
	ref := int32(lvl)*numSlots + slot
	w.where[id] = ref
	w.next[id] = w.head[ref]
	w.prev[id] = nilRef
	if w.head[ref] != nilRef {
		w.prev[w.head[ref]] = id
	}
	w.head[ref] = id
	w.occ[lvl] |= 1 << uint(slot)
}

// pushDue appends id to the matured list (FIFO, so maturation order is
// stable and deterministic).
//
//meccvet:hotpath
func (w *Wheel) pushDue(id int32) {
	w.stats.Matured++
	w.where[id] = whereDue
	w.next[id] = nilRef
	w.prev[id] = w.dueTail
	if w.dueTail != nilRef {
		w.next[w.dueTail] = id
	} else {
		w.due = id
	}
	w.dueTail = id
}

// unlink detaches id from whichever list currently holds it. The caller
// fixes up where/n.
//
//meccvet:hotpath
func (w *Wheel) unlink(id int32) {
	nx, pv := w.next[id], w.prev[id]
	if pv != nilRef {
		w.next[pv] = nx
	}
	if nx != nilRef {
		w.prev[nx] = pv
	}
	switch ref := w.where[id]; {
	case ref >= 0:
		if w.head[ref] == id {
			w.head[ref] = nx
		}
		if w.head[ref] == nilRef {
			w.occ[ref/numSlots] &^= 1 << uint(ref%numSlots)
		}
	case ref == whereDue:
		if w.due == id {
			w.due = nx
		}
		if w.dueTail == id {
			w.dueTail = pv
		}
	case ref == whereFar:
		if w.far == id {
			w.far = nx
		}
	}
}

// PopDue removes and returns one matured event (deadline <= Now()), or
// (-1, false) when none are pending.
//
//meccvet:hotpath
func (w *Wheel) PopDue() (int32, bool) {
	id := w.due
	if id == nilRef {
		return -1, false
	}
	w.unlink(id)
	w.where[id] = whereNone
	w.n--
	return id, true
}

// Next returns the earliest pending deadline (matured events report
// their original deadline, which may be in the past) and whether any
// event is pending.
//
//meccvet:hotpath
func (w *Wheel) Next() (uint64, bool) {
	if w.n == 0 {
		return 0, false
	}
	if w.due != nilRef {
		min := w.deadline[w.due]
		for id := w.next[w.due]; id != nilRef; id = w.next[id] {
			if d := w.deadline[id]; d < min {
				min = d
			}
		}
		return min, true
	}
	for lvl := 0; lvl < levels; lvl++ {
		if w.occ[lvl] == 0 {
			continue
		}
		slot := bits.TrailingZeros64(w.occ[lvl])
		id := w.head[int32(lvl)*numSlots+int32(slot)]
		min := w.deadline[id]
		for id = w.next[id]; id != nilRef; id = w.next[id] {
			if d := w.deadline[id]; d < min {
				min = d
			}
		}
		return min, true
	}
	// Only far events remain: linear scan (rare — they sit >= 2^36
	// cycles out).
	min := uint64(0)
	found := false
	for id := w.far; id != nilRef; id = w.next[id] {
		if d := w.deadline[id]; !found || d < min {
			min, found = d, true
		}
	}
	return min, found
}

// Advance moves time forward to 'to', maturing every event with
// deadline <= to onto the due list and re-placing events whose level
// drops as time approaches them. Time never moves backwards; Advance to
// the past or present is a no-op.
//
//meccvet:hotpath
func (w *Wheel) Advance(to uint64) {
	if to <= w.now {
		return
	}
	old := w.now
	w.now = to
	for lvl := 0; lvl < levels; lvl++ {
		if w.occ[lvl] == 0 {
			continue
		}
		shift := uint(lvl) * slotBits
		if old>>(shift+slotBits) != to>>(shift+slotBits) {
			// The level's block rolled over: every resident deadline is
			// <= to (it shared the old block's high bits). Flush all.
			w.flushLevel(lvl, numSlots, true)
			continue
		}
		newIdx := int(to>>shift) & (numSlots - 1)
		// Slots at index <= newIdx matured or dropped a level; the
		// placement invariant says occupied slots are > the old index,
		// so flushing [0, newIdx] touches exactly the affected ones.
		w.flushLevel(lvl, newIdx+1, false)
	}
	if old>>horizonBits != to>>horizonBits {
		w.rescanFar()
	}
}

// flushLevel empties the occupied slots of lvl with index < limit,
// maturing or re-placing each resident. When matureAll is set every
// resident is known past-due and goes straight to the due list (the
// block-rollover case); otherwise residents at the new current slot may
// merely drop to a lower level and are re-placed.
//
//meccvet:hotpath
func (w *Wheel) flushLevel(lvl, limit int, matureAll bool) {
	base := int32(lvl) * numSlots
	m := w.occ[lvl]
	if limit < numSlots {
		//meccvet:allow cyclewrap -- limit < numSlots = 64, so the shift is nonzero and the mask cannot wrap
		m &= (uint64(1) << uint(limit)) - 1
	}
	for m != 0 {
		slot := bits.TrailingZeros64(m)
		m &^= 1 << uint(slot)
		ref := base + int32(slot)
		id := w.head[ref]
		w.head[ref] = nilRef
		w.occ[lvl] &^= 1 << uint(slot)
		for id != nilRef {
			nx := w.next[id]
			if matureAll || w.deadline[id] <= w.now {
				w.pushDue(id)
			} else {
				w.stats.Cascaded++
				w.place(id, w.deadline[id])
			}
			id = nx
		}
	}
}

// rescanFar re-places every overflow event after a horizon-block
// rollover: some are now within the wheel's span (or past due).
func (w *Wheel) rescanFar() {
	id := w.far
	w.far = nilRef
	for id != nilRef {
		nx := w.next[id]
		w.place(id, w.deadline[id])
		id = nx
	}
}
