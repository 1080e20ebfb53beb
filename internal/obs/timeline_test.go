package obs

import (
	"strings"
	"testing"
)

func TestDowngradeIntervals(t *testing.T) {
	events := []Event{
		{T: 100, Kind: KindSMDEnable},
		{T: 300, Kind: KindSMDDisable},
		{T: 500, Kind: KindSMDEnable},
		{T: 50, Kind: KindDecode}, // unrelated kinds are ignored
	}
	ivs := DowngradeIntervals(events, 900)
	want := []Interval{{Start: 100, End: 300}, {Start: 500, End: 900}}
	if len(ivs) != len(want) {
		t.Fatalf("intervals = %+v", ivs)
	}
	for i := range want {
		if ivs[i] != want[i] {
			t.Errorf("interval %d = %+v, want %+v", i, ivs[i], want[i])
		}
	}

	// Events may arrive out of order (e.g. merged clock domains).
	shuffled := []Event{events[2], events[1], events[0]}
	ivs = DowngradeIntervals(shuffled, 900)
	if len(ivs) != 2 || ivs[0] != want[0] || ivs[1] != want[1] {
		t.Errorf("unsorted intervals = %+v", ivs)
	}

	if got := DowngradeIntervals(nil, 100); len(got) != 0 {
		t.Errorf("no events: %+v", got)
	}
	// Disable without a prior enable is ignored.
	if got := DowngradeIntervals([]Event{{T: 10, Kind: KindSMDDisable}}, 100); len(got) != 0 {
		t.Errorf("stray disable: %+v", got)
	}
}

func TestTimelineRendersStripsAndIntervals(t *testing.T) {
	s, err := NewSampler(100)
	if err != nil {
		t.Fatal(err)
	}
	c := NewRegistry().Counter("reads")
	s.AddCounterProbe("reads", c.Value)
	for q := 1; q <= 20; q++ {
		c.Add(uint64(q))
		s.Tick(uint64(q * 100))
	}
	events := []Event{
		{T: 200, Kind: KindSMDEnable, MPKC: 9},
		{T: 1200, Kind: KindSMDDisable},
		{T: 700, Kind: KindDecode, Cycles: 30},
	}
	tl := NewTimeline(s, events)
	tl.SetWidth(20)
	out := tl.String()

	for _, want := range []string{
		"timeline: 20 quanta x 100 cycles",
		"reads",
		"downgrade",
		"downgrade-enabled intervals: 1",
		"[200, 1200) cycles",
		"event census:",
		"smd_enable",
		"decode",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	// The reads series ramps up, so the last column must be at a higher
	// spark level than the first.
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "reads") {
			line = l
			break
		}
	}
	strip := line[strings.Index(line, "|")+1 : strings.LastIndex(line, "|")]
	first := strings.IndexByte(sparkLevels, strip[0])
	last := strings.IndexByte(sparkLevels, strip[len(strip)-1])
	if first < 0 || last < 0 || last <= first {
		t.Errorf("ramp not visible in strip %q (levels %d..%d)", strip, first, last)
	}
}

func TestTimelineNilSamplerEventsOnly(t *testing.T) {
	events := []Event{
		{T: 10, Kind: KindSMDEnable},
		{T: 90, Kind: KindSMDDisable},
	}
	out := NewTimeline(nil, events).String()
	if !strings.Contains(out, "downgrade-enabled intervals: 1") ||
		!strings.Contains(out, "[10, 90) cycles") {
		t.Errorf("events-only timeline:\n%s", out)
	}
}
