package golden

import (
	"encoding/binary"
	"math/bits"
	"testing"

	"repro/internal/bch"
	"repro/internal/hamming"
	"repro/internal/line"
)

// fuzzLine is the line the fuzz targets' seeds are built on.
var fuzzLine = [8]uint64{0x0123456789abcdef, 0xfedcba9876543210, 1 << 33, 42,
	0xdeadbeef, 0xcafebabe00000000, ^uint64(0), 0x8000000000000001}

// flipBytes encodes codeword positions as a fuzz target's flip list:
// two bytes each, little-endian.
func flipBytes(positions ...uint16) []byte {
	b := make([]byte, 0, 2*len(positions))
	for _, p := range positions {
		b = binary.LittleEndian.AppendUint16(b, p)
	}
	return b
}

// FuzzDecodeDifferential requires the optimized ECC-6 decoder and the
// reference to return the same data and Result for a fuzz-chosen
// received word, plain and extended. The word is built from a line of
// eight fuzz-chosen words: its parity is the line's encoding XOR a
// fuzz-chosen parity word, and up to eight flips follow at fuzz-chosen
// codeword positions (two bytes each, little-endian, modulo the number
// of positions, extension bit included).
func FuzzDecodeDifferential(f *testing.F) {
	type pair struct {
		opt *bch.Code
		ref *RefBCH
	}
	var pairs []pair
	for _, ext := range []bool{false, true} {
		opt, err := bch.New(6)
		if ext {
			opt, err = bch.NewExtended(6)
		}
		if err != nil {
			f.Fatal(err)
		}
		ref, err := NewRefBCH(6, ext)
		if err != nil {
			f.Fatal(err)
		}
		pairs = append(pairs, pair{opt, ref})
	}
	w := fuzzLine
	// A clean line, then six (correctable) and seven (beyond t) errors
	// spread over parity and data.
	f.Add(w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], uint64(0), []byte(nil))
	six := []uint16{3, 59, 60, 200, 400, 571}
	f.Add(w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], uint64(0), flipBytes(six...))
	f.Add(w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], uint64(0), flipBytes(append(six, 100)...))
	// A zero line whose parity is x^p mod g(x) for a shortened-away p:
	// its degree-1 locator's root lies beyond position 572.
	tail := shortenedTail(pairs[0].opt)
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), tail[len(tail)/2], []byte(nil))
	// One error in a parity bit, then two and three errors: the one- and
	// two-error hypotheses and the closed-form cubic.
	f.Add(w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], uint64(0), flipBytes(7))
	f.Add(w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], uint64(0), flipBytes(17, 300))
	f.Add(w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], uint64(0), flipBytes(2, 150, 500))
	// Every bit of the codeword g(x) but its data bit, x^60, on a zero
	// line: weight(g) - 1 errors whose remainder is x^60 mod g, the
	// remainder of one error at position 60. The one-error hypothesis
	// confirms that miscorrection (the extended code's parity check then
	// rejects it), and it must be the reference's.
	gLow := pairs[0].opt.Encode(line.Line{1})
	if bits.OnesCount64(gLow) < 7 {
		f.Fatalf("g(x) has %d parity terms, want 7 or more", bits.OnesCount64(gLow))
	}
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), gLow, []byte(nil))

	f.Fuzz(func(t *testing.T, w0, w1, w2, w3, w4, w5, w6, w7, parity uint64, flips []byte) {
		data := line.Line{w0, w1, w2, w3, w4, w5, w6, w7}
		for _, pr := range pairs {
			d, p := data, pr.opt.Encode(data)^parity
			for k := 0; k+1 < len(flips) && k < 16; k += 2 {
				pos := int(binary.LittleEndian.Uint16(flips[k:])) % codewordBits(pr.opt)
				flipCodewordBit(pr.opt, &d, &p, pos)
			}
			if bad := DiffBCH(pr.opt, pr.ref, []BCHCase{{Name: "fuzz", Data: d, Parity: p}}); len(bad) != 0 {
				t.Fatalf("ext=%v: %s", pr.opt.Extended(), bad[0])
			}
		}
	})
}

// FuzzSECDEDDifferential requires the 512-bit line SECDED and the
// reference to agree on a fuzz-chosen line and received word: the check
// word Encode returns for the line, the data and Result Decode returns
// for the word, and ScreenClean's verdict, which must be true exactly
// when Decode returns a zero Result. The word is the line with its
// encoding XOR a fuzz-chosen check word, followed by up to three flips
// at fuzz-chosen positions (two bytes each, little-endian, modulo the
// 523 data, check and overall parity bits; data bits first).
func FuzzSECDEDDifferential(f *testing.F) {
	opt, err := hamming.NewSECDED(line.Bits)
	if err != nil {
		f.Fatal(err)
	}
	ref, err := NewRefSECDED(line.Bits)
	if err != nil {
		f.Fatal(err)
	}
	total := line.Bits + ref.CheckBits()
	w := fuzzLine
	for _, flips := range [][]byte{
		nil,                            // clean
		flipBytes(300),                 // one data bit
		flipBytes(line.Bits + 3),       // one Hamming check bit
		flipBytes(uint16(total - 1)),   // the overall parity bit
		flipBytes(5, 400),              // two flips: detected
		flipBytes(5, 400, line.Bits+7), // three flips
	} {
		f.Add(w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], uint64(0), flips)
	}

	f.Fuzz(func(t *testing.T, w0, w1, w2, w3, w4, w5, w6, w7, check uint64, flips []byte) {
		data := []uint64{w0, w1, w2, w3, w4, w5, w6, w7}
		got, err := opt.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Encode = %#x, reference %#x", got, want)
		}
		check ^= got
		for k := 0; k+1 < len(flips) && k < 6; k += 2 {
			pos := int(binary.LittleEndian.Uint16(flips[k:])) % total
			if pos < line.Bits {
				flipBit(data, pos)
			} else {
				check ^= uint64(1) << (pos - line.Bits)
			}
		}
		if bad := DiffSECDED(opt, ref, []SECDEDCase{{Name: "fuzz", Data: data, Check: check}}); len(bad) != 0 {
			t.Fatal(bad[0])
		}
		res, err := opt.Decode(append([]uint64(nil), data...), check)
		if err != nil {
			t.Fatal(err)
		}
		if clean := res == (hamming.Result{}); opt.ScreenClean(data, check) != clean {
			t.Fatalf("ScreenClean = %v, Decode result %+v", !clean, res)
		}
	})
}
