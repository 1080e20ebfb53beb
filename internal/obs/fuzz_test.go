package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// FuzzReadJSONL must never panic, must reject every bad line with
// ErrBadTrace, must return only events of a valid kind, and each event
// it accepts, re-marshalled with encoding/json, must read back equal.
// The round trip goes through encoding/json rather than AppendJSON:
// the hand-rolled encoder writes span labels and mnemonics unescaped,
// which is safe only for the names real producers emit.
func FuzzReadJSONL(f *testing.F) {
	var seed bytes.Buffer
	for _, e := range representativeEvents() {
		seed.Write(e.AppendJSON(nil))
		seed.WriteByte('\n')
	}
	f.Add(seed.String())
	f.Add(`{"t":1,"kind":"no_such_kind"}`)
	f.Add("{bad json\n\n")
	f.Fuzz(func(t *testing.T, in string) {
		events, err := ReadJSONL(strings.NewReader(in))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("rejection does not wrap ErrBadTrace: %v", err)
			}
			return
		}
		for i, e := range events {
			if e.Kind < 1 || e.Kind > maxKind {
				t.Fatalf("event %d: accepted invalid kind %d", i, e.Kind)
			}
			line, err := json.Marshal(e)
			if err != nil {
				t.Fatalf("event %d: re-marshal: %v", i, err)
			}
			again, err := ReadJSONL(bytes.NewReader(line))
			if err != nil {
				t.Fatalf("event %d: re-read %s: %v", i, line, err)
			}
			if len(again) != 1 || again[0] != e {
				t.Fatalf("event %d: round trip %+v != %+v", i, again, e)
			}
		}
	})
}

// FuzzParseProm must never panic: obsscrape feeds this parser live
// HTTP input.
func FuzzParseProm(f *testing.F) {
	r := NewRegistry()
	r.Counter(SeriesName("memctrl_tier_refreshes_total", "shift", "2")).Add(7)
	r.Gauge("memctrl_read_queue_depth").Set(3)
	r.Histogram("sim_decode_cycles").Observe(30)
	var seed strings.Builder
	if err := r.WriteProm(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(`# TYPE http_requests_total counter` + "\n" + `http_requests_total{code="200",path="/a\"b"} 1027` + "\n")
	f.Fuzz(func(t *testing.T, in string) {
		ParseProm(strings.NewReader(in)) //nolint:errcheck // the property is no panic
	})
}
