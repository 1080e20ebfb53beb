package retention

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestDefaultModelAnchors(t *testing.T) {
	m := DefaultModel()
	if got := m.BER(SlowPeriod); math.Abs(got-SlowBitErrorRate)/SlowBitErrorRate > 1e-9 {
		t.Errorf("BER(1s) = %g, want %g", got, SlowBitErrorRate)
	}
	if got := m.BER(JEDECPeriod); math.Abs(got-JEDECBitErrorRate)/JEDECBitErrorRate > 1e-9 {
		t.Errorf("BER(64ms) = %g, want %g", got, JEDECBitErrorRate)
	}
	// Slope of the Fig. 2 line: 4.5 decades over log10(1/0.064) decades.
	wantSlope := 4.5 / math.Log10(1/0.064)
	if math.Abs(m.Slope()-wantSlope) > 1e-9 {
		t.Errorf("slope = %v, want %v", m.Slope(), wantSlope)
	}
}

func TestBERMonotonicAndClamped(t *testing.T) {
	m := DefaultModel()
	prev := -1.0
	for _, p := range []time.Duration{
		time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
		time.Second, 10 * time.Second, time.Hour,
	} {
		ber := m.BER(p)
		if ber < prev {
			t.Fatalf("BER not monotone at %v", p)
		}
		if ber < 0 || ber > 1 {
			t.Fatalf("BER(%v) = %g out of range", p, ber)
		}
		prev = ber
	}
	if m.BER(0) != 0 || m.BER(-time.Second) != 0 {
		t.Error("BER of non-positive period should be 0")
	}
}

func TestPeriodForInvertsBER(t *testing.T) {
	m := DefaultModel()
	for _, p := range []time.Duration{100 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second} {
		got := m.PeriodFor(m.BER(p))
		if math.Abs(got.Seconds()-p.Seconds()) > 1e-6 {
			t.Errorf("PeriodFor(BER(%v)) = %v", p, got)
		}
	}
	if m.PeriodFor(0) != 0 {
		t.Error("PeriodFor(0) should be 0")
	}
}

func TestNewModelValidation(t *testing.T) {
	cases := []struct {
		p1 time.Duration
		b1 float64
		p2 time.Duration
		b2 float64
	}{
		{0, 1e-9, time.Second, 1e-4},                // zero period
		{time.Second, 1e-9, time.Second, 1e-4},      // equal periods
		{time.Millisecond, 0, time.Second, 1e-4},    // zero ber
		{time.Millisecond, 1e-4, time.Second, 1e-9}, // decreasing ber
		{time.Millisecond, 1e-4, time.Second, 1.5},  // ber > 1
	}
	for i, c := range cases {
		if _, err := NewModel(c.p1, c.b1, c.p2, c.b2); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestCurveShape(t *testing.T) {
	m := DefaultModel()
	periods, bers := m.Curve(10*time.Millisecond, 10*time.Second, 31)
	if len(periods) != 31 || len(bers) != 31 {
		t.Fatalf("curve lengths %d/%d", len(periods), len(bers))
	}
	if periods[0] != 10*time.Millisecond {
		t.Errorf("first period = %v", periods[0])
	}
	for i := 1; i < len(bers); i++ {
		if bers[i] < bers[i-1] || periods[i] <= periods[i-1] {
			t.Fatalf("curve not monotone at %d", i)
		}
	}
	if p, b := m.Curve(time.Second, time.Second, 5); p != nil || b != nil {
		t.Error("degenerate range should return nil")
	}
}

func TestInjectorStatistics(t *testing.T) {
	const (
		nbits  = 576
		trials = 20000
		ber    = 1e-3
	)
	in := NewInjector(42, ber)
	total := 0
	for i := 0; i < trials; i++ {
		pos := in.FlipPositions(nbits)
		total += len(pos)
		for j := 1; j < len(pos); j++ {
			if pos[j] <= pos[j-1] {
				t.Fatal("positions not strictly increasing")
			}
		}
		if len(pos) > 0 && (pos[0] < 0 || pos[len(pos)-1] >= nbits) {
			t.Fatal("position out of range")
		}
	}
	mean := float64(total) / trials
	want := nbits * ber
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("mean flips = %v, want ≈ %v", mean, want)
	}
}

func TestInjectorEdgeCases(t *testing.T) {
	if got := NewInjector(1, 0).FlipPositions(100); got != nil {
		t.Error("ber=0 should flip nothing")
	}
	if got := NewInjector(1, 1).FlipPositions(5); len(got) != 5 {
		t.Error("ber=1 should flip everything")
	}
	// Below about 5e-18 a gap can exceed an int, and a NaN BER makes
	// every gap NaN; neither may turn into a position.
	for _, ber := range []float64{1e-18, 1e-25, math.SmallestNonzeroFloat64, math.NaN()} {
		in := NewInjector(1, ber)
		for i := 0; i < 1000; i++ {
			if got := in.FlipPositions(lineBits); got != nil {
				t.Fatalf("ber=%g flipped %v", ber, got)
			}
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	a := NewInjector(99, 1e-3).FlipPositions(10000)
	b := NewInjector(99, 1e-3).FlipPositions(10000)
	if len(a) != len(b) {
		t.Fatal("determinism broken: different counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("determinism broken: different positions")
		}
	}
}

// TestFlipPositionsAppendZeroAllocs guards the injection path of the
// integrity Monte Carlo and the retention-fault sweep: appending into a
// warmed-up buffer allocates nothing, on draws with and without
// failures.
func TestFlipPositionsAppendZeroAllocs(t *testing.T) {
	const nbits = 4096
	in := NewInjector(5, 1e-3) // about 4 failures per draw
	var buf []int
	for i := 0; i < 1000; i++ {
		buf = in.FlipPositionsAppend(nbits, buf[:0])
	}
	failures := 0
	if n := testing.AllocsPerRun(1000, func() {
		buf = in.FlipPositionsAppend(nbits, buf[:0])
		failures += len(buf)
	}); n != 0 {
		t.Errorf("FlipPositionsAppend into a warm buffer allocates %v/op", n)
	}
	if failures == 0 {
		t.Fatal("no draw failed a bit; the append path went unmeasured")
	}
}

// lineBits is a stored line: 512 data bits and 64 spare bits.
const lineBits = 576

// logSampling is the reference gap sampler for 0 < ber < 1: it takes
// the logarithm of every draw, including the draw that ends the line.
// FlipPositionsAppend must match it position for position and draw for
// draw.
func logSampling(rng *rand.Rand, ber float64, nbits int, buf []int) []int {
	lnq := math.Log1p(-ber)
	pos := -1
	for {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		gap := int(math.Floor(math.Log(u) / lnq))
		pos += gap + 1
		if pos >= nbits {
			return buf
		}
		buf = append(buf, pos)
	}
}

// matchLogSampling runs an injector and logSampling from the same seed
// through the bit counts in nbits, in order. It fails on the first call
// whose positions differ, and when the two have consumed different
// numbers of draws by the end.
func matchLogSampling(t testing.TB, seed int64, ber float64, nbits []int) {
	t.Helper()
	in := NewInjector(seed, ber)
	ref := rand.New(rand.NewSource(seed))
	var got, want []int
	for i, n := range nbits {
		got = in.FlipPositionsAppend(n, got[:0])
		want = logSampling(ref, ber, n, want[:0])
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d ber %g call %d (%d bits): positions %v, log sampling %v", seed, ber, i, n, got, want)
		}
	}
	if in.rng.Int63() != ref.Int63() {
		t.Fatalf("seed %d ber %g: the injector and log sampling consumed different draws", seed, ber)
	}
}

// script is a rand.Source that replays a fixed Int63 value, so that a
// draw u = v/2^63 can be placed exactly, and then continues a seeded
// source.
type script struct {
	first int64
	rest  rand.Source
	calls int
}

func (s *script) Int63() int64 {
	s.calls++
	if s.calls == 1 {
		return s.first
	}
	return s.rest.Int63()
}

func (s *script) Seed(int64) {}

// TestFlipPositionsMatchesLogSampling holds the log-free line end to
// the sampler that takes the logarithm of every draw. One injector per
// BER alternates bit counts, so its threshold table grows mid-stream.
// Then single draws are placed at each threshold itself, one step
// below and above it, and at (1-ber)^k, where rounding decides the log
// path's verdict.
func TestFlipPositionsMatchesLogSampling(t *testing.T) {
	cycle := []int{64, 1, lineBits, 64, 4096, lineBits}
	var nbits []int
	for i := 0; i < 1800; i++ {
		nbits = append(nbits, cycle[i%len(cycle)])
	}
	bers := []float64{1e-12, JEDECBitErrorRate, 1e-6, SlowBitErrorRate, 1e-4, 1e-3,
		1e-2, 0.1, 0.5, 0.9, 0.999, 0.999999}
	for i, ber := range bers {
		matchLogSampling(t, int64(i+1), ber, nbits)
	}

	placed := 0
	// At 0.504 and 3 bits left, and at 0.5005 and 7, the log path keeps
	// the line going on the draw just below (1-ber)^k: rounding alone
	// decides there, which is what the margin is for.
	for _, ber := range append(bers, 0.504, 0.5005) {
		for _, k := range []int{0, 1, 2, 3, 5, 7, 64, lineBits, 4096} {
			in := NewInjector(0, ber)
			in.growEnd(k)
			end := in.end[k]
			for _, u := range []float64{
				math.Nextafter(end, 0), end, math.Nextafter(end, 1),
				math.Exp(float64(k) * in.lnq),
				math.Nextafter(math.Exp(float64(k)*in.lnq), 0),
			} {
				v := int64(u * (1 << 63))
				if u >= 1 || float64(v)/(1<<63) != u {
					continue // not a draw Float64 can return
				}
				src := &script{first: v, rest: rand.NewSource(int64(k))}
				ref := &script{first: v, rest: rand.NewSource(int64(k))}
				in.rng = rand.New(src)
				got := in.FlipPositionsAppend(k, nil)
				want := logSampling(rand.New(ref), ber, k, nil)
				if !slices.Equal(got, want) || src.calls != ref.calls {
					t.Fatalf("ber %g, %d bits, first draw %v: positions %v after %d draws, log sampling %v after %d",
						ber, k, u, got, src.calls, want, ref.calls)
				}
				placed++
			}
		}
	}
	if placed < 100 {
		t.Fatalf("only %d draws were placed at thresholds", placed)
	}
}

// BenchmarkFlipPositions measures one line's draw into a reused buffer,
// at the integrity sweep's BER and at the JEDEC rate.
func BenchmarkFlipPositions(b *testing.B) {
	for _, ber := range []float64{1e-3, JEDECBitErrorRate} {
		b.Run(fmt.Sprintf("ber=%g", ber), func(b *testing.B) {
			in := NewInjector(1, ber)
			var buf []int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = in.FlipPositionsAppend(lineBits, buf[:0])
			}
		})
	}
}

func TestTemperatureDependence(t *testing.T) {
	m := DefaultModel()
	// At the nominal temperature the temp-aware call matches the base.
	if got, want := m.BERAtTemp(SlowPeriod, NominalTempC), m.BER(SlowPeriod); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("nominal temp BER = %g, want %g", got, want)
	}
	// +10 degC halves retention: BER(1s, 55C) == BER(2s, 45C).
	if got, want := m.BERAtTemp(SlowPeriod, NominalTempC+10), m.BER(2*SlowPeriod); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("hot BER = %g, want %g", got, want)
	}
	// Hotter is strictly worse; cooler strictly better.
	if m.BERAtTemp(SlowPeriod, 65) <= m.BERAtTemp(SlowPeriod, 45) {
		t.Error("BER not increasing with temperature")
	}
	if m.BERAtTemp(SlowPeriod, 25) >= m.BERAtTemp(SlowPeriod, 45) {
		t.Error("BER not decreasing when cool")
	}
}

// TestFailureMapReproducible is the regression test for seeded fault
// injection: two independent runs with the same seeds must produce
// bit-identical failure maps (line index -> failed bit positions)
// through the buffer-reusing append path.
// A run that consulted any ambient randomness — or depended on map
// iteration order — would diverge here.
func TestFailureMapReproducible(t *testing.T) {
	const (
		seed        = 42
		lines       = 2000
		bitsPerLine = 576
		ber         = 2e-3
	)
	buildMap := func() map[uint64][]int {
		inj := NewInjector(seed, ber)
		failed := make(map[uint64][]int)
		var buf []int
		for li := uint64(0); li < lines; li++ {
			buf = inj.FlipPositionsAppend(bitsPerLine, buf[:0])
			if len(buf) > 0 {
				failed[li] = append([]int(nil), buf...)
			}
		}
		return failed
	}
	a, b := buildMap(), buildMap()
	if len(a) != len(b) {
		t.Fatalf("failure maps differ in size: %d vs %d lines", len(a), len(b))
	}
	for li, bitsA := range a {
		bitsB, ok := b[li]
		if !ok {
			t.Fatalf("line %d failed in run A only", li)
		}
		if len(bitsA) != len(bitsB) {
			t.Fatalf("line %d: %d vs %d failed bits", li, len(bitsA), len(bitsB))
		}
		for i := range bitsA {
			if bitsA[i] != bitsB[i] {
				t.Fatalf("line %d bit %d: %d vs %d", li, i, bitsA[i], bitsB[i])
			}
		}
	}
	if len(a) == 0 {
		t.Fatal("expected some failures at this BER; map was empty")
	}
}

func TestCheckTemp(t *testing.T) {
	for _, ok := range []float64{-40, 0, 45, 85, 125} {
		if err := CheckTemp(ok); err != nil {
			t.Errorf("CheckTemp(%g) = %v", ok, err)
		}
	}
	for _, bad := range []float64{-41, 126, math.NaN()} {
		err := CheckTemp(bad)
		if !errors.Is(err, ErrBadTemperature) {
			t.Errorf("CheckTemp(%g) = %v, want ErrBadTemperature", bad, err)
		}
	}
}
