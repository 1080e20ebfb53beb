package obs

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter value")
	}
	var g *Gauge
	g.Set(1.5)
	if g.Value() != 0 {
		t.Error("nil gauge value")
	}
	var h *Histogram
	h.Observe(7)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram stats")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Error("nil registry must hand out nil handles")
	}

	var rec *Recorder
	if rec.Counter("x") != nil || rec.Registry() != nil || rec.Tracing(KindDecode) {
		t.Error("nil recorder must be fully inert")
	}
	rec.Emit(Event{Kind: KindDecode})
	rec.Tick(100)
	rec.SetEventLog(NewEventLog(MaskAll))
	rec.SetSampler(nil)
	if err := rec.Flush(); err != nil {
		t.Errorf("nil recorder Flush: %v", err)
	}
}

func TestNilHandlesZeroAllocs(t *testing.T) {
	var c *Counter
	var h *Histogram
	var rec *Recorder
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(5)
		h.Observe(42)
		rec.Tick(7)
	}); n != 0 {
		t.Errorf("disabled telemetry allocates %.1f times per run, want 0", n)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reads")
	c.Add(2)
	c.Inc()
	if c.Value() != 3 {
		t.Errorf("counter = %d, want 3", c.Value())
	}
	if reg.Counter("reads") != c {
		t.Error("counter lookup must be get-or-create")
	}
	g := reg.Gauge("ipc")
	g.Set(0.75)
	if g.Value() != 0.75 {
		t.Errorf("gauge = %v", g.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewRegistry().Counter("n")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewRegistry().Histogram("lat")
	// 10 observations of 1 (bucket upper 1), 10 of 100 (bucket [64,127]).
	for i := 0; i < 10; i++ {
		h.Observe(1)
		h.Observe(100)
	}
	if h.Count() != 20 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 10*1+10*100 {
		t.Errorf("sum = %d", h.Sum())
	}
	if got := h.Mean(); got != float64(1010)/20 {
		t.Errorf("mean = %v", got)
	}
	// The median lands in the first non-empty bucket's upper bound.
	if q := h.Quantile(0.5); q != 1 {
		t.Errorf("p50 = %d, want 1", q)
	}
	// p99 must cover the 100s (log2 bucket upper bound 127).
	if q := h.Quantile(0.99); q < 100 || q > 127 {
		t.Errorf("p99 = %d, want in [100,127]", q)
	}
	if q := h.Quantile(-1); q != 1 {
		t.Errorf("clamped low quantile = %d", q)
	}
	// Zero-valued observations land in a bucket with upper bound 0.
	h2 := NewRegistry().Histogram("z")
	h2.Observe(0)
	if q := h2.Quantile(0.5); q != 0 {
		t.Errorf("zero-only p50 = %d", q)
	}
}

func TestWritePromFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("reads_total").Add(7)
	reg.Gauge("ipc").Set(0.5)
	h := reg.Histogram("lat")
	h.Observe(3)
	h.Observe(300)
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE reads_total counter\nreads_total 7\n",
		"# TYPE ipc gauge\nipc 0.5\n",
		"# TYPE lat histogram\n",
		`lat_bucket{le="3"} 1`,
		`lat_bucket{le="+Inf"} 2`,
		"lat_sum 303",
		"lat_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative: the 300 bucket includes the 3.
	if !strings.Contains(out, `lat_bucket{le="511"} 2`) {
		t.Errorf("prom histogram buckets not cumulative:\n%s", out)
	}
}

func TestWriteCSV(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total").Add(2)
	reg.Counter("a_total").Add(1)
	reg.Gauge("g").Set(1.5)
	var sb strings.Builder
	if err := reg.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "name,value\n") {
		t.Errorf("csv header:\n%s", out)
	}
	// Counters render sorted by name.
	ia, ib := strings.Index(out, "a_total,1"), strings.Index(out, "b_total,2")
	if ia < 0 || ib < 0 || ia > ib {
		t.Errorf("csv rows missing or unsorted:\n%s", out)
	}
	if !strings.Contains(out, "g,1.5") {
		t.Errorf("csv gauge row:\n%s", out)
	}
}

func TestCounterNames(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z")
	reg.Counter("a")
	got := reg.CounterNames()
	if len(got) != 2 || got[0] != "a" || got[1] != "z" {
		t.Errorf("CounterNames = %v", got)
	}
}

// TestLocalHistogramDrain checks a staging buffer drains to exactly the
// series direct observation would build, and that a second drain adds
// nothing.
func TestLocalHistogramDrain(t *testing.T) {
	reg := NewRegistry()
	direct, shared := reg.Histogram("direct"), reg.Histogram("shared")
	local := shared.Local()
	for _, v := range []uint64{0, 1, 7, 8, 30, 30, 1 << 40} {
		direct.Observe(v)
		local.Observe(v)
	}
	if shared.Count() != 0 {
		t.Fatal("samples reached the shared series before Drain")
	}
	local.Drain()
	local.Drain()
	if !reflect.DeepEqual(shared.Buckets(), direct.Buckets()) || shared.Sum() != direct.Sum() {
		t.Errorf("drained %v sum %d, want %v sum %d", shared.Buckets(), shared.Sum(), direct.Buckets(), direct.Sum())
	}
	var nilH *Histogram
	nilL := nilH.Local()
	nilL.Observe(1)
	nilL.Drain()
	if nilL != nil {
		t.Error("nil histogram must hand out a nil buffer")
	}
}
