package golden

import (
	"fmt"
	"math/rand"

	"repro/internal/bch"
	"repro/internal/hamming"
	"repro/internal/line"
)

// BCHCodec is the observable contract shared by the optimized bch.Code
// and the RefBCH reference: systematic encode of one line, and decode of
// a received (data, parity) pair.
type BCHCodec interface {
	Encode(data line.Line) uint64
	Decode(data line.Line, parity uint64) (line.Line, bch.Result)
	ParityBits() int
	T() int
	Extended() bool
}

// BCHCase is one differential input: a received word, possibly corrupted
// away from any codeword, plus a label describing how it was built.
type BCHCase struct {
	Name   string
	Data   line.Line
	Parity uint64
}

// baseParityBits returns deg(g), the parity width without the extension
// bit.
func baseParityBits(c BCHCodec) int {
	if c.Extended() {
		return c.ParityBits() - 1
	}
	return c.ParityBits()
}

// flipCodewordBit flips position pos of a received word. Positions
// [0, deg(g)) are base parity bits, [deg(g), deg(g)+512) are data bits,
// and for extended codes the last position is the overall parity bit,
// which the parity word stores directly above the base parity.
func flipCodewordBit(c BCHCodec, data *line.Line, parity *uint64, pos int) {
	baseParity := baseParityBits(c)
	switch {
	case pos < baseParity:
		*parity ^= uint64(1) << pos
	case pos < baseParity+line.Bits:
		*data = data.FlipBit(pos - baseParity)
	default:
		*parity ^= uint64(1) << baseParity // extension bit
	}
}

// codewordBits returns the number of flippable positions in a received
// word, including the extension bit when present.
func codewordBits(c BCHCodec) int {
	return c.ParityBits() + line.Bits
}

// shortenedTail returns x^p mod g(x) for every position p that the
// shortened code leaves out, in rising order: p runs from deg(g)+512 up
// to n-1, where n, the natural code length, is the first exponent with
// x^n mod g(x) = 1. It needs only Encode: data bit i encodes to
// x^(deg(g)+i) mod g(x), so bit 0's parity is x^deg(g) mod g(x), the
// generator's low terms, and bit 511's is the monomial just below the
// tail.
func shortenedTail(c BCHCodec) []uint64 {
	base := baseParityBits(c)
	mask := uint64(1)<<base - 1
	var low, high line.Line
	gen := c.Encode(low.FlipBit(0))&mask | uint64(1)<<base
	pow := c.Encode(high.FlipBit(line.Bits-1)) & mask
	var tail []uint64
	for len(tail) < 1<<16 { // n < 2^16 for every supported field
		pow <<= 1
		if pow>>base&1 == 1 {
			pow ^= gen
		}
		if pow == 1 {
			break
		}
		tail = append(tail, pow)
	}
	return tail
}

func randomLine(rng *rand.Rand) line.Line {
	var ln line.Line
	for w := range ln {
		ln[w] = rng.Uint64()
	}
	return ln
}

// BCHCorpus builds the differential corpus for a codec: nRandom random
// cases at every error weight 0..t+2, plus deterministic adversarial
// families — burst errors of length 2..2t spanning the parity/data
// boundary, extension-bit flips alone and stacked on 1..t+1 data errors,
// all-zero / all-ones extremes, and the shortened tail: a lone "error"
// at every position the shortened code leaves out, and pairs with one
// position inside the codeword and one outside.
func BCHCorpus(c BCHCodec, rng *rand.Rand, nRandom int) []BCHCase {
	var cases []BCHCase
	bits := codewordBits(c)
	t := c.T()

	// Randomized sweep: for each weight w in 0..t+2, nRandom received
	// words built from a fresh codeword with w distinct flipped positions.
	for w := 0; w <= t+2; w++ {
		for k := 0; k < nRandom; k++ {
			data := randomLine(rng)
			parity := c.Encode(data)
			for _, pos := range rng.Perm(bits)[:w] {
				flipCodewordBit(c, &data, &parity, pos)
			}
			cases = append(cases, BCHCase{
				Name:   fmt.Sprintf("weight%d/%d", w, k),
				Data:   data,
				Parity: parity,
			})
		}
	}

	// Burst errors: contiguous runs, placed both inside the data, inside
	// the parity, and across the parity/data boundary.
	baseParity := baseParityBits(c)
	for blen := 2; blen <= 2*t && blen <= bits; blen++ {
		starts := []int{0, baseParity - blen/2, baseParity, baseParity + line.Bits - blen, rng.Intn(bits - blen + 1)}
		for _, start := range starts {
			if start < 0 || start+blen > bits {
				continue
			}
			data := randomLine(rng)
			parity := c.Encode(data)
			for i := 0; i < blen; i++ {
				flipCodewordBit(c, &data, &parity, start+i)
			}
			cases = append(cases, BCHCase{
				Name:   fmt.Sprintf("burst%d@%d", blen, start),
				Data:   data,
				Parity: parity,
			})
		}
	}

	// Extension-bit adversaries: the overall parity bit flipped alone and
	// together with w data errors, exercising the errParity/wantParity
	// consistency check for both agreeing and disagreeing weights.
	if c.Extended() {
		for w := 0; w <= t+1; w++ {
			data := randomLine(rng)
			parity := c.Encode(data)
			parity ^= uint64(1) << baseParity
			for _, pos := range rng.Perm(line.Bits)[:w] {
				data = data.FlipBit(pos)
			}
			cases = append(cases, BCHCase{
				Name:   fmt.Sprintf("extflip+%d", w),
				Data:   data,
				Parity: parity,
			})
		}
	}

	// Extremes: all-zero and all-ones lines, clean and with garbage parity.
	var zero, ones line.Line
	for w := range ones {
		ones[w] = ^uint64(0)
	}
	for _, ln := range []line.Line{zero, ones} {
		cases = append(cases,
			BCHCase{Name: "extreme/clean", Data: ln, Parity: c.Encode(ln)},
			BCHCase{Name: "extreme/garbage-parity", Data: ln, Parity: rng.Uint64()},
		)
	}

	// Shortened tail: XORing x^p mod g(x) into the parity of a codeword
	// gives the syndromes of a lone error at a position p beyond the
	// codeword, and one more flip inside makes a pair half beyond it.
	// Neither is correctable.
	tail := shortenedTail(c)
	first := baseParity + line.Bits
	for k, rem := range tail {
		data := randomLine(rng)
		cases = append(cases, BCHCase{
			Name:   fmt.Sprintf("tail@%d", first+k),
			Data:   data,
			Parity: c.Encode(data) ^ rem,
		})
	}
	for k := 0; k < 64 && len(tail) > 0; k++ {
		p, q := rng.Intn(len(tail)), rng.Intn(first)
		data := randomLine(rng)
		parity := c.Encode(data) ^ tail[p]
		flipCodewordBit(c, &data, &parity, q)
		cases = append(cases, BCHCase{
			Name:   fmt.Sprintf("tail@%d+%d", first+p, q),
			Data:   data,
			Parity: parity,
		})
	}
	return cases
}

// BCHMismatch records one disagreement between the optimized and
// reference codecs.
type BCHMismatch struct {
	Case      BCHCase
	OptData   line.Line
	RefData   line.Line
	OptResult bch.Result
	RefResult bch.Result
}

func (m BCHMismatch) String() string {
	return fmt.Sprintf("case %s: opt=(%+v, %s) ref=(%+v, %s)",
		m.Case.Name, m.OptResult, m.OptData, m.RefResult, m.RefData)
}

// DiffBCH decodes every case with both codecs and collects mismatches in
// the public contract: the returned line and the Result must be
// identical, bit for bit, on every input — including uncorrectable ones,
// where both must hand back the original data unchanged.
func DiffBCH(opt, ref BCHCodec, cases []BCHCase) []BCHMismatch {
	var bad []BCHMismatch
	for _, tc := range cases {
		optData, optRes := opt.Decode(tc.Data, tc.Parity)
		refData, refRes := ref.Decode(tc.Data, tc.Parity)
		if optData != refData || optRes != refRes {
			bad = append(bad, BCHMismatch{
				Case: tc, OptData: optData, RefData: refData,
				OptResult: optRes, RefResult: refRes,
			})
		}
	}
	return bad
}

// SECDEDCase is one differential input for the Hamming codes.
type SECDEDCase struct {
	Name  string
	Data  []uint64
	Check uint64
}

// SECDEDCorpus builds the corpus for a SECDED geometry: nRandom random
// cases at every error weight 0..3 over data, check and parity bits,
// plus deterministic check-bit and parity-bit adversaries.
func SECDEDCorpus(dataBits int, rng *rand.Rand, nRandom int) []SECDEDCase {
	ref, err := NewRefSECDED(dataBits)
	if err != nil {
		// invariant: dataBits comes from the validated test table.
		panic(err)
	}
	words := (dataBits + 63) / 64
	checkW := ref.CheckBits()
	total := dataBits + checkW

	var cases []SECDEDCase
	for w := 0; w <= 3; w++ {
		for k := 0; k < nRandom; k++ {
			data := make([]uint64, words)
			for i := range data {
				data[i] = rng.Uint64()
			}
			if rem := uint(dataBits) & 63; rem != 0 {
				data[words-1] &= (1 << rem) - 1
			}
			check, err := ref.Encode(data)
			if err != nil {
				// invariant: the reference encoder accepts every word-aligned input.
				panic(err)
			}
			for _, pos := range rng.Perm(total)[:w] {
				if pos < dataBits {
					flipBit(data, pos)
				} else {
					check ^= uint64(1) << (pos - dataBits)
				}
			}
			cases = append(cases, SECDEDCase{
				Name:  fmt.Sprintf("weight%d/%d", w, k),
				Data:  data,
				Check: check,
			})
		}
	}

	// Every single check-bit and parity-bit flip on a fixed pattern.
	for cb := 0; cb < checkW; cb++ {
		data := make([]uint64, words)
		for i := range data {
			data[i] = 0xA5A5A5A5A5A5A5A5
		}
		if rem := uint(dataBits) & 63; rem != 0 {
			data[words-1] &= (1 << rem) - 1
		}
		check, err := ref.Encode(data)
		if err != nil {
			// invariant: the reference encoder accepts every word-aligned input.
			panic(err)
		}
		cases = append(cases, SECDEDCase{
			Name:  fmt.Sprintf("checkflip%d", cb),
			Data:  data,
			Check: check ^ uint64(1)<<cb,
		})
	}
	return cases
}

// SECDEDMismatch records one disagreement between the optimized and
// reference SECDED decoders.
type SECDEDMismatch struct {
	Case      SECDEDCase
	OptData   []uint64
	RefData   []uint64
	OptResult hamming.Result
	RefResult hamming.Result
}

func (m SECDEDMismatch) String() string {
	return fmt.Sprintf("case %s: opt=(%+v, %x) ref=(%+v, %x)",
		m.Case.Name, m.OptResult, m.OptData, m.RefResult, m.RefData)
}

// DiffSECDED decodes every case with both the optimized hamming.SECDED
// and the reference model, comparing the Result and the (possibly
// repaired in place) data words.
func DiffSECDED(opt *hamming.SECDED, ref *RefSECDED, cases []SECDEDCase) []SECDEDMismatch {
	var bad []SECDEDMismatch
	for _, tc := range cases {
		optData := append([]uint64(nil), tc.Data...)
		refData := append([]uint64(nil), tc.Data...)
		optRes, err1 := opt.Decode(optData, tc.Check)
		refRes, err2 := ref.Decode(refData, tc.Check)
		if err1 != nil || err2 != nil {
			bad = append(bad, SECDEDMismatch{Case: tc, OptData: optData, RefData: refData, OptResult: optRes, RefResult: refRes})
			continue
		}
		same := optRes == refRes
		for i := range optData {
			if optData[i] != refData[i] {
				same = false
			}
		}
		if !same {
			bad = append(bad, SECDEDMismatch{
				Case: tc, OptData: optData, RefData: refData,
				OptResult: optRes, RefResult: refRes,
			})
		}
	}
	return bad
}
