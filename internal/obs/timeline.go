package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// sparkLevels are the intensity glyphs of a timeline row, lowest first.
const sparkLevels = " .:-=+*#%@"

// Interval is a half-open cycle range [Start, End).
type Interval struct {
	Start, End uint64
}

// DowngradeIntervals extracts the ECC-Downgrade-enabled intervals from
// an event stream (KindSMDEnable opens one, KindSMDDisable closes it).
// An interval still open at end closes there. Events need not be
// sorted.
func DowngradeIntervals(events []Event, end uint64) []Interval {
	var marks []Event
	for _, e := range events {
		if e.Kind == KindSMDEnable || e.Kind == KindSMDDisable {
			marks = append(marks, e)
		}
	}
	sort.SliceStable(marks, func(i, j int) bool { return marks[i].T < marks[j].T })
	var out []Interval
	open := false
	var start uint64
	for _, e := range marks {
		switch e.Kind {
		case KindSMDEnable:
			if !open {
				open = true
				start = e.T
			}
		case KindSMDDisable:
			if open {
				open = false
				out = append(out, Interval{Start: start, End: e.T})
			}
		}
	}
	if open {
		if end < start {
			end = start
		}
		out = append(out, Interval{Start: start, End: end})
	}
	return out
}

// Timeline renders a run's telemetry as an ASCII dashboard: one
// sparkline strip per sampled series, a downgrade-state strip derived
// from SMD decision events, the explicit enable/disable intervals, and
// an event-census bar chart (drawn with internal/stats/chart).
type Timeline struct {
	sampler *Sampler
	events  []Event
	trace   *EventLog
	width   int
}

// NewTimeline builds a renderer over a sampler (may be nil), the flight
// recorder's window and a trace log. It draws the window's events whose
// kind the trace log keeps, and takes the census from the trace log's
// exact per-kind counts, so no log has to retain the per-request kinds.
func NewTimeline(s *Sampler, flight, trace *EventLog) *Timeline {
	t := &Timeline{sampler: s, trace: trace, width: 72}
	for _, e := range flight.Events() {
		if trace != nil && trace.mask.Has(e.Kind) {
			t.events = append(t.events, e)
		}
	}
	return t
}

// SetWidth sets the strip width in columns (minimum 16).
func (t *Timeline) SetWidth(w int) {
	if w < 16 {
		w = 16
	}
	t.width = w
}

// span returns the covered cycle range's end.
func (t *Timeline) span() uint64 {
	var end uint64
	if t.sampler != nil {
		if rows := t.sampler.Rows(); len(rows) > 0 {
			end = rows[len(rows)-1].T
		}
	}
	for _, e := range t.events {
		if e.T > end {
			end = e.T
		}
	}
	return end
}

// String renders the dashboard.
func (t *Timeline) String() string {
	var sb strings.Builder
	end := t.span()
	if t.sampler != nil && len(t.sampler.Rows()) > 0 {
		t.renderStrips(&sb)
	}
	ivs := DowngradeIntervals(t.events, end)
	fmt.Fprintf(&sb, "downgrade-enabled intervals: %d\n", len(ivs))
	for _, iv := range ivs {
		frac := 0.0
		if end > 0 {
			frac = float64(iv.End-iv.Start) / float64(end) * 100
		}
		fmt.Fprintf(&sb, "  [%d, %d) cycles (%.1f%% of run)\n", iv.Start, iv.End, frac)
	}
	if census := t.renderCensus(); census != "" {
		sb.WriteString("event census:\n")
		sb.WriteString(census)
	}
	return sb.String()
}

// renderStrips draws one sparkline per sampled series plus the
// downgrade strip, one character per column, aggregating quanta by max.
func (t *Timeline) renderStrips(sb *strings.Builder) {
	rows := t.sampler.Rows()
	names := t.sampler.Names()
	cols := t.width
	if len(rows) < cols {
		cols = len(rows)
	}
	perCol := (len(rows) + cols - 1) / cols
	cols = (len(rows) + perCol - 1) / perCol
	fmt.Fprintf(sb, "timeline: %d quanta x %d cycles, %d quanta/column\n",
		len(rows), t.sampler.Quantum(), perCol)

	nameW := 0
	for _, n := range names {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	if nameW < len("downgrade") {
		nameW = len("downgrade")
	}
	for si, name := range names {
		colMax := make([]float64, cols)
		var seriesMax float64
		for i, row := range rows {
			c := i / perCol
			if row.V[si] > colMax[c] {
				colMax[c] = row.V[si]
			}
			if row.V[si] > seriesMax {
				seriesMax = row.V[si]
			}
		}
		strip := make([]byte, cols)
		for c, v := range colMax {
			strip[c] = sparkLevels[0]
			if seriesMax > 0 && v > 0 {
				lvl := int(v / seriesMax * float64(len(sparkLevels)-1))
				if lvl < 1 {
					lvl = 1
				}
				strip[c] = sparkLevels[lvl]
			}
		}
		fmt.Fprintf(sb, "%-*s |%s| max %s\n", nameW, name, strip,
			strconv.FormatFloat(seriesMax, 'g', 4, 64))
	}

	// Downgrade strip: 'D' where ECC-Downgrade was enabled at any point
	// inside the column's cycle range.
	quantum := t.sampler.Quantum()
	ivs := DowngradeIntervals(t.events, rows[len(rows)-1].T)
	if len(ivs) > 0 {
		strip := make([]byte, cols)
		for c := range strip {
			lo := uint64(c*perCol) * quantum
			hi := uint64((c+1)*perCol) * quantum
			strip[c] = '.'
			for _, iv := range ivs {
				if iv.Start < hi && iv.End > lo {
					strip[c] = 'D'
					break
				}
			}
		}
		fmt.Fprintf(sb, "%-*s |%s| D = ECC-Downgrade enabled\n", nameW, "downgrade", strip)
	}
}

// renderCensus draws the trace log's per-kind event counts as a bar
// chart ("" when it kept nothing).
func (t *Timeline) renderCensus() string {
	bc := stats.NewBarChart(40)
	for _, k := range Kinds() {
		if n := t.trace.Count(k); n > 0 {
			bc.Add(k.String(), "", float64(n))
		}
	}
	return bc.String()
}
