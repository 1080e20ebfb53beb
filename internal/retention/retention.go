// Package retention models DRAM cell data-retention behaviour: the
// cumulative bit-failure probability as a function of refresh period
// (paper Fig. 2, derived from Kim & Lee's 60 nm characterization), plus a
// fault injector that plants retention errors into stored lines at the
// modelled bit error rate.
package retention

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// ErrBadAnchor reports an invalid calibration point.
var ErrBadAnchor = errors.New("retention: anchors must have 0 < ber < 1 and increasing periods")

// Model is the retention-failure model: a power law in refresh period,
// matching the straight line of the paper's log-log Fig. 2. It is
// calibrated by two anchor points and is immutable after construction.
type Model struct {
	refPeriod time.Duration
	refBER    float64
	slope     float64
}

// Paper calibration anchors (Section II-B): at the JEDEC 64 ms period the
// bit failure probability is ~1e-9; at 1 s it is ~10^-4.5.
const (
	// JEDECPeriod is the standard DRAM refresh period.
	JEDECPeriod = 64 * time.Millisecond
	// JEDECBitErrorRate is the bit failure probability at JEDECPeriod.
	JEDECBitErrorRate = 1e-9
	// SlowPeriod is the paper's extended idle-mode refresh period.
	SlowPeriod = time.Second
	// SlowBitErrorRate is the paper's default raw BER at SlowPeriod.
	SlowBitErrorRate = 3.1622776601683795e-05 // 10^-4.5
)

// NewModel calibrates a power-law retention model through two anchor
// points: (p1, ber1) and (p2, ber2) with p1 < p2.
func NewModel(p1 time.Duration, ber1 float64, p2 time.Duration, ber2 float64) (*Model, error) {
	if p1 <= 0 || p2 <= p1 || ber1 <= 0 || ber1 >= 1 || ber2 <= ber1 || ber2 >= 1 {
		return nil, fmt.Errorf("%w: (%v,%g) (%v,%g)", ErrBadAnchor, p1, ber1, p2, ber2)
	}
	slope := math.Log10(ber2/ber1) / math.Log10(p2.Seconds()/p1.Seconds())
	return &Model{refPeriod: p2, refBER: ber2, slope: slope}, nil
}

// DefaultModel returns the model calibrated to the paper's anchors.
func DefaultModel() *Model {
	m, err := NewModel(JEDECPeriod, JEDECBitErrorRate, SlowPeriod, SlowBitErrorRate)
	if err != nil {
		// invariant: the constants satisfy the constructor's checks.
		panic(err)
	}
	return m
}

// BER returns the cumulative bit failure probability when cells are
// refreshed every period. The power law is clamped to [0, 1].
func (m *Model) BER(period time.Duration) float64 {
	if period <= 0 {
		return 0
	}
	ber := m.refBER * math.Pow(period.Seconds()/m.refPeriod.Seconds(), m.slope)
	return math.Min(ber, 1)
}

// PeriodFor returns the largest refresh period whose BER does not exceed
// the target.
//
//meccvet:unitconv
func (m *Model) PeriodFor(targetBER float64) time.Duration {
	if targetBER <= 0 {
		return 0
	}
	sec := m.refPeriod.Seconds() * math.Pow(targetBER/m.refBER, 1/m.slope)
	return time.Duration(sec * float64(time.Second))
}

// Slope returns the fitted log-log slope (≈3.77 for the paper anchors).
func (m *Model) Slope() float64 { return m.slope }

// Temperature dependence: DRAM retention time roughly halves for every
// 10 degC of junction temperature — which is why JEDEC doubles the
// refresh rate above 85 degC, and why a phone gaming in the sun needs
// more margin than the paper's nominal operating point.
const (
	// NominalTempC is the temperature the base model is calibrated at.
	NominalTempC = 45.0
	// RetentionHalvingC is the temperature step that halves retention.
	RetentionHalvingC = 10.0
)

// BERAtTemp returns the bit failure probability at a refresh period and
// junction temperature: retention halving per RetentionHalvingC is
// equivalent to the period looking 2^((temp-nominal)/10) times longer.
//
//meccvet:unitconv
func (m *Model) BERAtTemp(period time.Duration, tempC float64) float64 {
	factor := math.Pow(2, (tempC-NominalTempC)/RetentionHalvingC)
	return m.BER(time.Duration(float64(period) * factor))
}

// Curve samples the model at logarithmically spaced periods in [lo, hi],
// for rendering Fig. 2. It returns parallel period and BER slices.
//
//meccvet:unitconv
func (m *Model) Curve(lo, hi time.Duration, points int) ([]time.Duration, []float64) {
	if points < 2 || hi <= lo {
		return nil, nil
	}
	periods := make([]time.Duration, points)
	bers := make([]float64, points)
	l0, l1 := math.Log10(lo.Seconds()), math.Log10(hi.Seconds())
	for i := 0; i < points; i++ {
		sec := math.Pow(10, l0+(l1-l0)*float64(i)/float64(points-1))
		periods[i] = time.Duration(sec * float64(time.Second))
		bers[i] = m.BER(periods[i])
	}
	return periods, bers
}

// Injector plants independent uniform bit errors at a given BER, using
// geometric gap sampling so that cost is proportional to the number of
// failures rather than the number of bits. It is NOT safe for concurrent
// use; give each goroutine its own Injector.
type Injector struct {
	rng *rand.Rand
	ber float64
	// lnq is ln(1-ber), cached for gap sampling.
	lnq float64
}

// NewInjector builds a deterministic fault injector.
func NewInjector(seed int64, ber float64) *Injector {
	return &Injector{
		rng: rand.New(rand.NewSource(seed)),
		ber: ber,
		lnq: math.Log1p(-ber),
	}
}

// FlipPositions returns the positions in [0, nbits) that fail, in
// increasing order. The expected count is nbits*ber.
func (in *Injector) FlipPositions(nbits int) []int {
	return in.FlipPositionsAppend(nbits, nil)
}

// FlipPositionsAppend appends the positions in [0, nbits) that fail to
// buf, in increasing order, and returns the extended slice. Hot sweep
// loops pass a reused buffer (sliced to length 0) so that injection
// performs no allocations in the common no-failure case; the random
// sequence drawn is identical to FlipPositions.
func (in *Injector) FlipPositionsAppend(nbits int, buf []int) []int {
	if in.ber <= 0 {
		return buf
	}
	if in.ber >= 1 {
		for i := 0; i < nbits; i++ {
			buf = append(buf, i)
		}
		return buf
	}
	pos := -1
	for {
		// Geometric gap: number of surviving bits before the next failure.
		u := in.rng.Float64()
		for u == 0 {
			u = in.rng.Float64()
		}
		gap := int(math.Floor(math.Log(u) / in.lnq))
		pos += gap + 1
		if pos >= nbits {
			return buf
		}
		buf = append(buf, pos)
	}
}

// Operating-range bounds for junction-temperature inputs. LPDDR parts
// are specified from -40 degC to an extended-temperature ceiling; inputs
// outside this window are rejected with ErrBadTemperature rather than
// clamped, so a mistyped profile fails loudly instead of silently
// simulating a physically meaningless device.
const (
	// MinTempC is the lowest accepted junction temperature.
	MinTempC = -40.0
	// MaxTempC is the highest accepted junction temperature.
	MaxTempC = 125.0
)

// ErrBadTemperature reports a junction temperature outside
// [MinTempC, MaxTempC].
var ErrBadTemperature = errors.New("retention: temperature out of range")

// CheckTemp validates a junction temperature against the operating
// range, returning a wrapped ErrBadTemperature when it is outside
// [MinTempC, MaxTempC] or NaN.
func CheckTemp(tempC float64) error {
	if math.IsNaN(tempC) || tempC < MinTempC || tempC > MaxTempC {
		return fmt.Errorf("%w: %g degC (want %g..%g)", ErrBadTemperature, tempC, MinTempC, MaxTempC)
	}
	return nil
}
