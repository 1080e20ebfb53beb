// Package obs is the simulator's telemetry subsystem: a metrics
// registry (counters, gauges, log2-bucket latency histograms), a typed
// structured event trace (DRAM commands, refresh ops, MECC mode
// transitions, SMD decisions, MDT marks, decode-latency samples, trace
// spans), a per-quantum time-series sampler, a hierarchical span tracer,
// an always-on failure flight recorder, and a live progress tracker,
// with JSONL / CSV / Prometheus text exposition format (0.0.4)
// exporters and an ASCII timeline renderer. The sibling package
// obs/httpserv serves the live side over HTTP.
//
// Every entry point is nil-safe: a nil *Recorder, *Counter, *Gauge,
// *Histogram, *LocalHistogram, *Span, *FlightRecorder or *Progress is a
// no-op, so instrumented hot paths (the BCH decoder, the DRAM command
// issue path) pay one nil check and zero allocations when telemetry is
// disabled, and simulation results are bit-identical either way — the
// subsystem only observes, it never steers.
//
// The default-on configuration is as cheap as the disabled one. Each
// event sink keeps a fixed set of kinds — the flight recorder
// FlightKinds, which leaves out the per-command, per-read and
// per-tREFI streams — and Recorder.Tracing(k) tells producers whether
// any attached sink keeps kind k, so those emit sites cost one false
// branch. Counters that mirror a model statistic are published from
// that statistic by the simulation runner on a coarse cadence, and
// per-request histograms are staged in single-owner LocalHistogram
// buffers, so parallel runs sharing one registry write no shared cache
// line per request.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe
// for concurrent use and are no-ops on a nil receiver.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric. All methods are safe for concurrent use
// and are no-ops on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the bucket count of a log2 histogram. A sample v lands
// in bucket index bits.Len64(v): bucket 0 holds exactly the value 0 and
// bucket i (1 <= i <= 64) holds the half-open range [2^(i-1), 2^i), so
// bucket i's inclusive upper bound is 2^i - 1 (see bucketUpper; the
// last bucket's bound saturates at MaxUint64). 65 buckets cover the
// full uint64 domain.
const histBuckets = 65

// Histogram is a log2-bucket histogram of non-negative integer samples
// (latencies in cycles, batch sizes, ...). Observations are lock-free;
// a nil receiver is a no-op.
type Histogram struct {
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one sample into the bits.Len64(v) bucket (see
// histBuckets for the exact boundary mapping). There is no separate
// count cell: Count is defined as the sum of the buckets, so the hot
// path pays two atomic adds (sum, bucket), not three, and
// count == sum-of-buckets holds at every instant by construction —
// even mid-Observe under concurrency, since the bucket add is the
// single commit point of a sample's countedness (pinned by
// TestHistogramConcurrentObserveCountMatchesBuckets under -race).
//
//meccvet:hotpath
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// Count returns the number of samples (the sum over all buckets; there
// is no independent count cell to drift from them).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the arithmetic mean of the samples (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// LocalHistogram is a single-owner staging buffer for a shared
// Histogram: Observe is a plain add to memory only its owner writes,
// and Drain moves the buffered samples into the shared series. A
// simulation runner observes per-request latencies into its own buffers
// and drains them on its publish cadence, so runners sharing a registry
// never write the same histogram cache lines per request. A nil
// *LocalHistogram is a no-op. Not safe for concurrent use.
type LocalHistogram struct {
	dst     *Histogram
	sum     uint64
	buckets [histBuckets]uint64
}

// Local returns a staging buffer that drains into h; a nil histogram
// yields a nil (no-op) buffer.
func (h *Histogram) Local() *LocalHistogram {
	if h == nil {
		return nil
	}
	return &LocalHistogram{dst: h}
}

// Observe buffers one sample (same bucket mapping as Histogram.Observe).
//
//meccvet:hotpath
func (l *LocalHistogram) Observe(v uint64) {
	if l == nil {
		return
	}
	l.sum += v
	l.buckets[bits.Len64(v)]++
}

// Drain adds the buffered samples to the shared histogram and empties
// the buffer.
func (l *LocalHistogram) Drain() {
	if l == nil {
		return
	}
	l.dst.sum.Add(l.sum)
	l.sum = 0
	for i, n := range l.buckets {
		if n != 0 {
			l.dst.buckets[i].Add(n)
			l.buckets[i] = 0
		}
	}
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return uint64(1)<<i - 1
}

// Quantile returns an upper bound on the p-quantile (0 < p <= 1): the
// upper edge of the log2 bucket in which the quantile falls. It returns
// 0 when the histogram is empty.
func (h *Histogram) Quantile(p float64) uint64 {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := uint64(math.Ceil(p * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// Buckets returns the non-empty (upperBound, count) pairs in ascending
// bound order.
func (h *Histogram) Buckets() []HistBucket {
	if h == nil {
		return nil
	}
	var out []HistBucket
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			out = append(out, HistBucket{Upper: bucketUpper(i), Count: n})
		}
	}
	return out
}

// HistBucket is one non-empty histogram bucket.
type HistBucket struct {
	// Upper is the inclusive upper bound of the bucket.
	Upper uint64
	// Count is the number of samples in the bucket.
	Count uint64
}

// Registry names and owns a set of metrics. Metric creation takes a
// lock; the returned handles are lock-free. A nil *Registry hands out
// nil handles, which are themselves no-ops, so "registry disabled"
// needs no call-site branching.
//
// A metric name may carry a Prometheus label block — the full series
// name `base{key="value",...}` is the registry key. Build labeled names
// with SeriesName, which sanitizes both the base and the label parts;
// the exposition writer groups all series of one base under a single
// # HELP / # TYPE header.
type Registry struct {
	mu    sync.Mutex
	ctrs  map[string]*Counter
	gauge map[string]*Gauge
	hists map[string]*Histogram
	help  map[string]string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:  make(map[string]*Counter),
		gauge: make(map[string]*Gauge),
		hists: make(map[string]*Histogram),
		help:  make(map[string]string),
	}
}

// SetHelp attaches Prometheus # HELP text to a metric base name (the
// name without any label block). Empty help removes the entry.
func (r *Registry) SetHelp(base, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if help == "" {
		delete(r.help, base)
		return
	}
	r.help[SanitizeMetricName(base)] = help
}

// AliasCounter registers alias as a second name for the named counter
// (creating it if needed): both names resolve to the same *Counter, so
// one atomic increment feeds both series. Used to expose an existing
// counter under a labeled name (e.g. mecc_reads_total{mode="strong"}
// aliasing mecc_strong_reads_total) without a second hot-path add.
func (r *Registry) AliasCounter(alias, name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.Counter(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ctrs[alias] = c
	return c
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauge[name]
	if !ok {
		g = &Gauge{}
		r.gauge[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// validMetricRune reports whether c may appear in a Prometheus metric
// name past the first character ([a-zA-Z0-9_:]).
func validMetricRune(c byte) bool {
	return c == '_' || c == ':' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// SanitizeMetricName maps an arbitrary string onto the Prometheus
// metric-name grammar [a-zA-Z_:][a-zA-Z0-9_:]*: invalid bytes become
// '_' and a leading digit gains a '_' prefix. Already-valid names pass
// through unchanged (and unallocated).
func SanitizeMetricName(name string) string {
	if name == "" {
		return "_"
	}
	ok := !(name[0] >= '0' && name[0] <= '9')
	for i := 0; ok && i < len(name); i++ {
		ok = validMetricRune(name[i])
	}
	if ok {
		return name
	}
	var b strings.Builder
	b.Grow(len(name) + 1)
	if name[0] >= '0' && name[0] <= '9' {
		b.WriteByte('_')
	}
	for i := 0; i < len(name); i++ {
		if validMetricRune(name[i]) {
			b.WriteByte(name[i])
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// escapeHelp escapes # HELP text (backslash and newline only; quotes
// are legal there).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// SeriesName builds a full labeled series name `base{k="v",...}` from
// alternating key, value pairs, sanitizing the base and keys and
// escaping the values. Use the result as a Registry metric name; the
// exposition writer groups every series of one base under a single
// header. With no pairs it returns the sanitized base alone.
func SeriesName(base string, kv ...string) string {
	base = SanitizeMetricName(base)
	if len(kv) < 2 {
		return base
	}
	var b strings.Builder
	b.Grow(len(base) + 16*len(kv)/2)
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(SanitizeMetricName(kv[i]))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// seriesBase returns the base metric name of a (possibly labeled)
// series name: everything before the first '{'.
func seriesBase(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// groupByBase buckets the map's series keys by base name and returns
// the sorted base list plus base → sorted series keys. Grouping is
// explicit rather than relying on lexical key order because '{' sorts
// above alphanumerics: a plain series `a_total_x` would otherwise
// interleave between `a_total` and `a_total{...}` and split the group.
func groupByBase[V any](m map[string]V) ([]string, map[string][]string) {
	groups := make(map[string][]string)
	for name := range m {
		b := seriesBase(name)
		groups[b] = append(groups[b], name)
	}
	bases := make([]string, 0, len(groups))
	for b := range groups {
		bases = append(bases, b)
		sort.Strings(groups[b])
	}
	sort.Strings(bases)
	return bases, groups
}

// writeHeader emits the # HELP (when registered) and # TYPE lines for
// one metric base.
func (r *Registry) writeHeader(w io.Writer, base, typ string) error {
	if help, ok := r.help[base]; ok {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, escapeHelp(help)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, typ)
	return err
}

// WriteProm renders every metric in Prometheus text exposition format
// (0.0.4) in deterministic order: counters, then gauges, then
// histograms, each sorted by base name with the labeled series of one
// base grouped under a single # HELP / # TYPE header. Histograms expose
// cumulative _bucket{le=...} series plus _sum and _count. Counter
// aliases that share a *Counter render as independent series.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	bases, groups := groupByBase(r.ctrs)
	for _, base := range bases {
		if err := r.writeHeader(w, base, "counter"); err != nil {
			return err
		}
		for _, name := range groups[base] {
			if _, err := fmt.Fprintf(w, "%s %d\n", name, r.ctrs[name].Value()); err != nil {
				return err
			}
		}
	}
	bases, groups = groupByBase(r.gauge)
	for _, base := range bases {
		if err := r.writeHeader(w, base, "gauge"); err != nil {
			return err
		}
		for _, name := range groups[base] {
			if _, err := fmt.Fprintf(w, "%s %g\n", name, r.gauge[name].Value()); err != nil {
				return err
			}
		}
	}
	bases, groups = groupByBase(r.hists)
	for _, base := range bases {
		if err := r.writeHeader(w, base, "histogram"); err != nil {
			return err
		}
		for _, name := range groups[base] {
			h := r.hists[name]
			// Labeled histogram series splice le into an existing block.
			lbl := ""
			if i := strings.IndexByte(name, '{'); i >= 0 {
				lbl = name[i+1:len(name)-1] + ","
				name = name[:i]
			}
			var cum uint64
			for _, b := range h.Buckets() {
				cum += b.Count
				if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"%d\"} %d\n", name, lbl, b.Upper, cum); err != nil {
					return err
				}
			}
			suffix := ""
			if lbl != "" {
				suffix = "{" + lbl[:len(lbl)-1] + "}"
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n%s_sum%s %d\n%s_count%s %d\n",
				name, lbl, h.Count(), name, suffix, h.Sum(), name, suffix, h.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCSV renders scalar metrics (counters and gauges, plus histogram
// count/sum/p50/p99) as name,value rows in sorted order.
func (r *Registry) WriteCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := fmt.Fprintln(w, "name,value"); err != nil {
		return err
	}
	for _, name := range sortedKeys(r.ctrs) {
		if _, err := fmt.Fprintf(w, "%s,%d\n", name, r.ctrs[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.gauge) {
		if _, err := fmt.Fprintf(w, "%s,%g\n", name, r.gauge[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		if _, err := fmt.Fprintf(w, "%s_count,%d\n%s_sum,%d\n%s_p50,%d\n%s_p99,%d\n",
			name, h.Count(), name, h.Sum(), name, h.Quantile(0.50), name, h.Quantile(0.99)); err != nil {
			return err
		}
	}
	return nil
}

// CounterNames returns the registered counter names, sorted.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.ctrs)
}
