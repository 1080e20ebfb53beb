package retention

import (
	"math"
	"testing"
)

// fuzzBER maps 64 fuzz bits into [2^-54, 1): the low six bits pick one
// of 54 binades below 1 and the high 52 bits the mantissa. At every
// such BER the log sampler's gaps fit an int.
func fuzzBER(bits uint64) float64 {
	return math.Ldexp(1+float64(bits>>12)/(1<<52), -1-int(bits&63)%54)
}

// berBits is the inverse of fuzzBER, for seeding the corpus.
func berBits(ber float64) uint64 {
	frac, exp := math.Frexp(ber) // ber = frac * 2^exp, frac in [0.5, 1)
	return uint64((2*frac-1)*(1<<52))<<12 | uint64(-exp)
}

// FuzzFlipPositions holds FlipPositionsAppend to the sampler that takes
// the logarithm of every draw, for a fuzz-chosen seed, BER in (0, 1)
// and bit count in 1..8192. The injector runs four calls that alternate
// bit counts, so its threshold table grows mid-stream, and must match
// the reference position for position and draw for draw.
func FuzzFlipPositions(f *testing.F) {
	f.Add(int64(1), berBits(1e-3), uint16(lineBits-1))
	f.Add(int64(2), berBits(JEDECBitErrorRate), uint16(lineBits-1))
	f.Add(int64(3), berBits(SlowBitErrorRate), uint16(4095))
	f.Add(int64(4), berBits(0.999999), uint16(63))
	f.Add(int64(5), berBits(0x1p-54), uint16(8191))
	f.Fuzz(func(t *testing.T, seed int64, bits uint64, n uint16) {
		ber := fuzzBER(bits)
		if ber <= 0 || ber >= 1 {
			t.Fatalf("bits %#x map to BER %g, outside (0, 1)", bits, ber)
		}
		nbits := 1 + int(n)%8192
		matchLogSampling(t, seed, ber, []int{nbits, 1 + nbits/3, nbits, lineBits})
	})
}
