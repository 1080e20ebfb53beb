package ecc

// CostModel captures the hardware cost of one codec's encoder/decoder pair
// as the paper models it (Section III-E): decode latency is on the memory
// critical path; encode is a shallow XOR tree and completes in one cycle.
// Latency is in CPU cycles (1.6 GHz); energy per operation in picojoules;
// area in two-input-gate equivalents.
type CostModel struct {
	// EncodeCycles is the encoder latency in CPU cycles.
	EncodeCycles int
	// DecodeCycles is the decoder latency in CPU cycles.
	DecodeCycles int
	// EncodeEnergyPJ is the energy per line encode.
	EncodeEnergyPJ float64
	// DecodeEnergyPJ is the energy per line decode.
	DecodeEnergyPJ float64
	// AreaGates is the decoder logic size in gate equivalents.
	AreaGates int
}

// Cost models from the paper's estimates. The ECC-6 decode latency of 30
// cycles is the default the evaluation uses; Fig. 12 sweeps 15..60.
const (
	// DefaultSECDEDDecodeCycles is the weak-code decode latency.
	DefaultSECDEDDecodeCycles = 2
	// DefaultStrongDecodeCycles is the ECC-6 decode latency.
	DefaultStrongDecodeCycles = 30
)

// DefaultCost returns the paper's cost estimate for a codec:
//   - SECDED: ~3K XOR gates, 2-cycle decode;
//   - ECC-t (BCH): ~100K-200K gates, 30-cycle decode, ~40 pJ per decode
//     (vs ~12 nJ for the DRAM line read itself);
//   - none: free.
//
// Energy and area scale linearly with t, following the cited Chien-search
// complexity analysis.
func DefaultCost(c Codec) CostModel {
	switch c.(type) {
	case None:
		return CostModel{}
	case *LineSECDED, *WordSECDED:
		return SECDEDCost()
	default:
		return BCHCost(c.CorrectBits())
	}
}

// SECDEDCost is DefaultCost of either SECDED codec, without building one.
func SECDEDCost() CostModel {
	return CostModel{
		EncodeCycles:   1,
		DecodeCycles:   DefaultSECDEDDecodeCycles,
		EncodeEnergyPJ: 1,
		DecodeEnergyPJ: 2,
		AreaGates:      3_000,
	}
}

// BCHCost is DefaultCost of an ECC-t codec, without building one: the
// cost depends only on t.
func BCHCost(t int) CostModel {
	return CostModel{
		EncodeCycles:   1,
		DecodeCycles:   DefaultStrongDecodeCycles,
		EncodeEnergyPJ: 1 + float64(t),
		DecodeEnergyPJ: 40 * float64(t) / 6,
		AreaGates:      25_000 * t,
	}
}
