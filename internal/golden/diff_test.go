package golden

import (
	"math/rand"
	"testing"

	"repro/internal/bch"
	"repro/internal/hamming"
)

// newPair builds the optimized and reference codecs for one geometry.
func newPair(t *testing.T, tErr int, extended bool) (*bch.Code, *RefBCH) {
	t.Helper()
	var opt *bch.Code
	var err error
	if extended {
		opt, err = bch.NewExtended(tErr)
	} else {
		opt, err = bch.New(tErr)
	}
	if err != nil {
		t.Fatalf("bch.New(t=%d, ext=%v): %v", tErr, extended, err)
	}
	ref, err := NewRefBCH(tErr, extended)
	if err != nil {
		t.Fatalf("NewRefBCH(t=%d, ext=%v): %v", tErr, extended, err)
	}
	return opt, ref
}

// TestGeneratorsAgree pins the independently constructed reference
// generator polynomial to the optimized code's, for every t.
func TestGeneratorsAgree(t *testing.T) {
	for tErr := 1; tErr <= bch.MaxT; tErr++ {
		opt, ref := newPair(t, tErr, false)
		if !opt.Generator().Equal(ref.Generator()) {
			t.Errorf("t=%d: generator mismatch:\n  opt %s\n  ref %s",
				tErr, opt.Generator(), ref.Generator())
		}
		if opt.ParityBits() != ref.ParityBits() {
			t.Errorf("t=%d: parity bits: opt %d ref %d", tErr, opt.ParityBits(), ref.ParityBits())
		}
	}
}

// TestEncodeAgrees cross-checks the table-driven LFSR encoder against
// literal polynomial division on random lines, plain and extended.
func TestEncodeAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, ext := range []bool{false, true} {
		for tErr := 1; tErr <= bch.MaxT; tErr++ {
			opt, ref := newPair(t, tErr, ext)
			for k := 0; k < 200; k++ {
				data := randomLine(rng)
				if got, want := opt.Encode(data), ref.Encode(data); got != want {
					t.Fatalf("t=%d ext=%v: Encode(%s) = %#x, reference %#x",
						tErr, ext, data, got, want)
				}
			}
		}
	}
}

// TestDecodeDifferentialT6 is the headline cross-check: the production
// ECC-6 geometry (plain and extended) against the reference decoder over
// the full randomized + adversarial corpus — more than 10k cases each.
func TestDecodeDifferentialT6(t *testing.T) {
	for _, ext := range []bool{false, true} {
		opt, ref := newPair(t, 6, ext)
		rng := rand.New(rand.NewSource(1))
		cases := BCHCorpus(opt, rng, 1300) // 9 weights x 1300 > 10k randomized
		if len(cases) < 10000 {
			t.Fatalf("corpus too small: %d cases", len(cases))
		}
		if bad := DiffBCH(opt, ref, cases); len(bad) != 0 {
			for i, m := range bad {
				if i == 5 {
					t.Errorf("... and %d more mismatches", len(bad)-5)
					break
				}
				t.Errorf("ext=%v: %s", ext, m)
			}
		}
	}
}

// TestDecodeDifferentialAllT spot-checks the remaining correction
// strengths with a smaller corpus each.
func TestDecodeDifferentialAllT(t *testing.T) {
	for tErr := 1; tErr <= bch.MaxT; tErr++ {
		if tErr == 6 {
			continue // covered exhaustively above
		}
		for _, ext := range []bool{false, true} {
			opt, ref := newPair(t, tErr, ext)
			rng := rand.New(rand.NewSource(int64(tErr)))
			cases := BCHCorpus(opt, rng, 40)
			if bad := DiffBCH(opt, ref, cases); len(bad) != 0 {
				t.Errorf("t=%d ext=%v: %d mismatches, first: %s", tErr, ext, len(bad), bad[0])
			}
		}
	}
}

// TestSECDEDDifferential cross-checks both production Hamming
// geometries — (72,64) word and (523,512) line — against the exhaustive
// single-flip-search reference over >10k cases each.
func TestSECDEDDifferential(t *testing.T) {
	for _, dataBits := range []int{64, 512} {
		opt, err := hamming.NewSECDED(dataBits)
		if err != nil {
			t.Fatalf("NewSECDED(%d): %v", dataBits, err)
		}
		ref, err := NewRefSECDED(dataBits)
		if err != nil {
			t.Fatalf("NewRefSECDED(%d): %v", dataBits, err)
		}
		if opt.CheckBits() != ref.CheckBits() {
			t.Fatalf("dataBits=%d: check width: opt %d ref %d", dataBits, opt.CheckBits(), ref.CheckBits())
		}
		nRandom := 2600 // 4 weights x 2600 > 10k randomized
		if dataBits == 512 {
			nRandom = 650 // the 512-bit reference search is ~40x slower per case
		}
		rng := rand.New(rand.NewSource(int64(dataBits)))
		cases := SECDEDCorpus(dataBits, rng, nRandom)
		if bad := DiffSECDED(opt, ref, cases); len(bad) != 0 {
			t.Errorf("dataBits=%d: %d mismatches, first: %s", dataBits, len(bad), bad[0])
		}
	}
}

// TestSECDEDEncodeAgrees pins the syndrome-accumulation encoder to the
// literal coverage-equation solver.
func TestSECDEDEncodeAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dataBits := range []int{64, 512} {
		opt, _ := hamming.NewSECDED(dataBits)
		ref, _ := NewRefSECDED(dataBits)
		words := (dataBits + 63) / 64
		for k := 0; k < 500; k++ {
			data := make([]uint64, words)
			for i := range data {
				data[i] = rng.Uint64()
			}
			got, err1 := opt.Encode(data)
			want, err2 := ref.Encode(data)
			if err1 != nil || err2 != nil {
				t.Fatalf("encode errors: %v, %v", err1, err2)
			}
			if got != want {
				t.Fatalf("dataBits=%d case %d: Encode = %#x, reference %#x", dataBits, k, got, want)
			}
		}
	}
}
