package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"ok_name:total": "ok_name:total",
		"":              "_",
		"9lead":         "_9lead",
		"a-b.c d":       "a_b_c_d",
		"héllo":         "h__llo", // é is two UTF-8 bytes
	}
	for in, want := range cases {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSeriesName(t *testing.T) {
	cases := []struct {
		base string
		kv   []string
		want string
	}{
		{"m_total", nil, "m_total"},
		{"m_total", []string{"mode", "strong"}, `m_total{mode="strong"}`},
		{"m_total", []string{"a", "1", "b", "2"}, `m_total{a="1",b="2"}`},
		{"m-total", []string{"k-1", `a"b`}, `m_total{k_1="a\"b"}`},
	}
	for _, tc := range cases {
		if got := SeriesName(tc.base, tc.kv...); got != tc.want {
			t.Errorf("SeriesName(%q, %v) = %q, want %q", tc.base, tc.kv, got, tc.want)
		}
	}
}

func TestWritePromGroupsLabeledSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(1)
	r.Counter("a_total_x").Add(2) // lexically between a_total and a_total{...}
	r.Counter(SeriesName("a_total", "shift", "2")).Add(3)
	r.Counter(SeriesName("a_total", "shift", "0")).Add(4)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := "# TYPE a_total counter\n" +
		"a_total 1\n" +
		`a_total{shift="0"} 4` + "\n" +
		`a_total{shift="2"} 3` + "\n" +
		"# TYPE a_total_x counter\n" +
		"a_total_x 2\n"
	if got != want {
		t.Errorf("grouped exposition:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestWritePromHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total").Inc()
	r.SetHelp("m_total", "line1\nline2 with \\ backslash")
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP m_total line1\nline2 with \\ backslash` + "\n"
	if !strings.Contains(b.String(), want) {
		t.Errorf("help escaping:\n%s", b.String())
	}
	r.SetHelp("m_total", "")
	b.Reset()
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "# HELP") {
		t.Errorf("cleared help still rendered:\n%s", b.String())
	}
}

func TestWritePromLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(SeriesName("lat_cycles", "tier", "fast"))
	h.Observe(3)
	h.Observe(5)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"# TYPE lat_cycles histogram\n",
		`lat_cycles_bucket{tier="fast",le="3"} 1` + "\n",
		`lat_cycles_bucket{tier="fast",le="7"} 2` + "\n",
		`lat_cycles_bucket{tier="fast",le="+Inf"} 2` + "\n",
		`lat_cycles_sum{tier="fast"} 8` + "\n",
		`lat_cycles_count{tier="fast"} 2` + "\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("labeled histogram missing %q:\n%s", want, got)
		}
	}
	if _, err := ParseProm(strings.NewReader(got)); err != nil {
		t.Errorf("labeled histogram exposition rejected: %v\n%s", err, got)
	}
}

// TestHistogramConcurrentObserveCountMatchesBuckets pins the invariant
// behind the two-atomic Observe: with no separate count cell, the
// count is the sum of the buckets at every instant, so concurrent
// readers can never see a count that drifts from the bucket totals.
// Run under -race this also vets the lock-free recording contract.
func TestHistogramConcurrentObserveCountMatchesBuckets(t *testing.T) {
	h := &Histogram{}
	const writers = 8
	const perWriter = 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			count := h.Count()
			var fromBuckets uint64
			for _, b := range h.Buckets() {
				fromBuckets += b.Count
			}
			// Buckets() ran after Count(): monotonicity is the only
			// orderable claim mid-flight.
			if fromBuckets < count {
				t.Errorf("bucket total %d fell below earlier count %d", fromBuckets, count)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(uint64(w*perWriter + i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	if got := h.Count(); got != writers*perWriter {
		t.Errorf("final Count() = %d, want %d", got, writers*perWriter)
	}
	var fromBuckets uint64
	for _, b := range h.Buckets() {
		fromBuckets += b.Count
	}
	if fromBuckets != h.Count() {
		t.Errorf("count %d != sum of buckets %d", h.Count(), fromBuckets)
	}
}
