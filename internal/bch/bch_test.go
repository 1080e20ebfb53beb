package bch

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gf2"
	"repro/internal/line"
)

func mustCode(t *testing.T, tcap int, extended bool) *Code {
	t.Helper()
	var (
		c   *Code
		err error
	)
	if extended {
		c, err = NewExtended(tcap)
	} else {
		c, err = New(tcap)
	}
	if err != nil {
		t.Fatalf("New(t=%d, ext=%v): %v", tcap, extended, err)
	}
	return c
}

func randLine(rng *rand.Rand) line.Line {
	var ln line.Line
	for w := range ln {
		ln[w] = rng.Uint64()
	}
	return ln
}

func TestCodeParameters(t *testing.T) {
	// The paper's budget: ECC-6 on 512 data bits costs 60 parity bits in
	// GF(2^10); with the detection extension, 61.
	for tcap := 1; tcap <= 6; tcap++ {
		c := mustCode(t, tcap, false)
		if c.FieldM() != 10 {
			t.Errorf("t=%d: m = %d, want 10", tcap, c.FieldM())
		}
		if got, want := c.ParityBits(), 10*tcap; got != want {
			t.Errorf("t=%d: parity = %d, want %d", tcap, got, want)
		}
	}
	ext := mustCode(t, 6, true)
	if got := ext.ParityBits(); got != 61 {
		t.Errorf("extended ECC-6 parity = %d, want 61", got)
	}
}

func TestNewRejectsBadT(t *testing.T) {
	for _, tc := range []int{0, -1, 7, 9} {
		if _, err := New(tc); err == nil {
			t.Errorf("New(%d): want error", tc)
		}
	}
}

func TestGeneratorDividesXn1(t *testing.T) {
	for _, tcap := range []int{1, 2, 6} {
		c := mustCode(t, tcap, false)
		xn1 := gf2.NewPoly2(c.N(), 0)
		if _, r, err := xn1.DivMod(c.Generator()); err != nil || r.Degree() != -1 {
			t.Errorf("t=%d: g(x) does not divide x^n+1", tcap)
		}
	}
}

func TestEncodeMatchesPolynomialDivision(t *testing.T) {
	// The table-driven encoder must agree with direct polynomial
	// arithmetic: parity(d) = d(x)*x^deg mod g(x).
	rng := rand.New(rand.NewSource(11))
	for _, tcap := range []int{1, 3, 6} {
		c := mustCode(t, tcap, false)
		deg := c.ParityBits()
		for trial := 0; trial < 20; trial++ {
			data := randLine(rng)
			var dpoly gf2.Poly2
			for i := 0; i < line.Bits; i++ {
				if data.Bit(i) == 1 {
					dpoly = dpoly.SetCoeff(i, 1)
				}
			}
			want := uint64(0)
			if dpoly.Degree() >= 0 {
				rem, err := dpoly.Shift(deg).Mod(c.Generator())
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < deg; i++ {
					want |= uint64(rem.Coeff(i)) << i
				}
			}
			if got := c.Encode(data); got != want {
				t.Fatalf("t=%d trial %d: Encode = %#x, want %#x", tcap, trial, got, want)
			}
		}
	}
}

func TestDecodeCleanCodeword(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tcap := range []int{1, 6} {
		c := mustCode(t, tcap, false)
		for trial := 0; trial < 10; trial++ {
			data := randLine(rng)
			p := c.Encode(data)
			got, res := c.Decode(data, p)
			if res.Uncorrectable || res.CorrectedBits != 0 || got != data {
				t.Fatalf("t=%d: clean decode altered data (res=%+v)", tcap, res)
			}
		}
	}
}

// corruptWord flips nErr distinct random bits across data+parity and
// returns the corrupted pair.
func corruptWord(rng *rand.Rand, c *Code, data line.Line, parity uint64, nErr int) (line.Line, uint64) {
	total := line.Bits + c.ParityBits()
	seen := make(map[int]bool, nErr)
	for len(seen) < nErr {
		p := rng.Intn(total)
		if seen[p] {
			continue
		}
		seen[p] = true
		if p < line.Bits {
			data = data.FlipBit(p)
		} else {
			parity ^= uint64(1) << (p - line.Bits)
		}
	}
	return data, parity
}

func TestCorrectsUpToT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tcap := range []int{1, 2, 3, 4, 5, 6} {
		c := mustCode(t, tcap, false)
		for nErr := 0; nErr <= tcap; nErr++ {
			for trial := 0; trial < 15; trial++ {
				data := randLine(rng)
				parity := c.Encode(data)
				cd, cp := corruptWord(rng, c, data, parity, nErr)
				got, res := c.Decode(cd, cp)
				if res.Uncorrectable {
					t.Fatalf("t=%d nErr=%d: flagged uncorrectable", tcap, nErr)
				}
				if got != data {
					t.Fatalf("t=%d nErr=%d: wrong correction", tcap, nErr)
				}
				if res.CorrectedBits != nErr {
					t.Fatalf("t=%d nErr=%d: CorrectedBits=%d", tcap, nErr, res.CorrectedBits)
				}
			}
		}
	}
}

func TestExtendedDetectsTPlus1(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tcap := range []int{1, 2, 6} {
		c := mustCode(t, tcap, true)
		for trial := 0; trial < 25; trial++ {
			data := randLine(rng)
			parity := c.Encode(data)
			cd, cp := corruptWord(rng, c, data, parity, tcap+1)
			got, res := c.Decode(cd, cp)
			if !res.Uncorrectable {
				t.Fatalf("t=%d ext: %d errors not detected (decoded to original=%v)",
					tcap, tcap+1, got == data)
			}
		}
	}
}

func TestExtendedStillCorrectsT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := mustCode(t, 6, true)
	for nErr := 0; nErr <= 6; nErr++ {
		for trial := 0; trial < 10; trial++ {
			data := randLine(rng)
			parity := c.Encode(data)
			cd, cp := corruptWord(rng, c, data, parity, nErr)
			got, res := c.Decode(cd, cp)
			if res.Uncorrectable || got != data {
				t.Fatalf("ext t=6 nErr=%d: decode failed (res=%+v)", nErr, res)
			}
		}
	}
}

func TestBeyondCapacityNeverSilentlyWrong(t *testing.T) {
	// Without the extension bit, >t errors may decode to a *different*
	// codeword (that is information-theoretically unavoidable), but the
	// decoder must never return a word that fails its own re-check, and
	// must report either Uncorrectable or a correction count <= t.
	rng := rand.New(rand.NewSource(6))
	c := mustCode(t, 2, false)
	for trial := 0; trial < 200; trial++ {
		data := randLine(rng)
		parity := c.Encode(data)
		nErr := 3 + rng.Intn(6)
		cd, cp := corruptWord(rng, c, data, parity, nErr)
		got, res := c.Decode(cd, cp)
		if res.Uncorrectable {
			continue
		}
		if res.CorrectedBits > c.T() {
			t.Fatalf("claimed to correct %d > t", res.CorrectedBits)
		}
		// If it "corrected", the result must be a valid codeword.
		if p2 := c.Encode(got); got != data && p2 == cp^0 && false {
			t.Fatal("unreachable sanity branch")
		}
	}
}

func TestErrorsOnlyInParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := mustCode(t, 6, false)
	data := randLine(rng)
	parity := c.Encode(data)
	bad := parity ^ 0b101011 // four parity-bit errors
	got, res := c.Decode(data, bad)
	if res.Uncorrectable || got != data || res.CorrectedBits != 4 {
		t.Fatalf("parity-only errors: res=%+v", res)
	}
}

func TestZeroLineCodeword(t *testing.T) {
	c := mustCode(t, 6, false)
	var zero line.Line
	if p := c.Encode(zero); p != 0 {
		t.Fatalf("parity of zero line = %#x, want 0", p)
	}
	got, res := c.Decode(zero, 0)
	if res.Uncorrectable || !got.IsZero() {
		t.Fatal("zero codeword decode failed")
	}
}

// Property-style sweep: every single-bit error position is corrected.
func TestAllSingleBitPositions(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive position sweep skipped in -short")
	}
	c := mustCode(t, 1, false)
	rng := rand.New(rand.NewSource(8))
	data := randLine(rng)
	parity := c.Encode(data)
	for pos := 0; pos < line.Bits+c.ParityBits(); pos++ {
		cd, cp := data, parity
		if pos < line.Bits {
			cd = cd.FlipBit(pos)
		} else {
			cp ^= uint64(1) << (pos - line.Bits)
		}
		got, res := c.Decode(cd, cp)
		if res.Uncorrectable || got != data || res.CorrectedBits != 1 {
			t.Fatalf("pos %d: res=%+v", pos, res)
		}
	}
}

// TestDecodeAllOneAndTwoErrorPatterns corrects every single-bit and
// every two-bit error pattern over the 572 codeword bits of ECC-6
// (163,306 pairs), plain and extended: the closed-form roots must cover
// every position the Chien scan covers.
func TestDecodeAllOneAndTwoErrorPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, extended := range []bool{false, true} {
		c := mustCode(t, 6, extended)
		data := randLine(rng)
		parity := c.Encode(data)
		length := c.parityBits + line.Bits
		flip := func(d line.Line, p uint64, pos int) (line.Line, uint64) {
			if pos < c.parityBits {
				return d, p ^ uint64(1)<<pos
			}
			return d.FlipBit(pos - c.parityBits), p
		}
		for i := 0; i < length; i++ {
			d1, p1 := flip(data, parity, i)
			if got, res := c.Decode(d1, p1); got != data || res != (Result{CorrectedBits: 1}) {
				t.Fatalf("ext=%v error at %d: %+v", extended, i, res)
			}
			for j := i + 1; j < length; j++ {
				d2, p2 := flip(d1, p1, j)
				if got, res := c.Decode(d2, p2); got != data || res != (Result{CorrectedBits: 2}) {
					t.Fatalf("ext=%v errors at %d,%d: %+v", extended, i, j, res)
				}
			}
		}
	}
}

// monomialRemainder returns x^p mod g(x) as a parity word, by literal
// polynomial division.
func monomialRemainder(t *testing.T, c *Code, p int) uint64 {
	t.Helper()
	rem, err := gf2.NewPoly2(p).Mod(c.Generator())
	if err != nil {
		t.Fatal(err)
	}
	return rem[0]
}

// TestShortenedTailUncorrectable: a received word whose remainder is
// x^p mod g for a shortened-away position p in [572, 1023) looks like a
// single error beyond the codeword, and a pair with one position inside
// and one outside like a double error half beyond it. The code cannot
// correct either, so both must decode as Uncorrectable with the data
// untouched.
func TestShortenedTailUncorrectable(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, extended := range []bool{false, true} {
		c := mustCode(t, 6, extended)
		length := c.parityBits + line.Bits
		data := randLine(rng)
		parity := c.Encode(data)
		for p := length; p < c.N(); p++ {
			tail := monomialRemainder(t, c, p)
			if got, res := c.Decode(data, parity^tail); got != data || !res.Uncorrectable {
				t.Fatalf("ext=%v lone tail position %d: %+v", extended, p, res)
			}
			for k := 0; k < 4; k++ {
				q := rng.Intn(length)
				cd, cp := data, parity^tail
				if q < c.parityBits {
					cp ^= uint64(1) << q
				} else {
					cd = cd.FlipBit(q - c.parityBits)
				}
				if got, res := c.Decode(cd, cp); got != cd || !res.Uncorrectable {
					t.Fatalf("ext=%v tail position %d with error at %d: %+v", extended, p, q, res)
				}
			}
		}
	}
}

// TestClosedFormRootsMatchChien pins root1, roots2 and roots3 to the
// Chien scan: the same ok and, when ok, the same set of positions, over
// every degree-1 locator, random degree-2 locators with rows for
// lambda1 = 0 and lambda2 = 0, and, for every t that reaches degree 3,
// random degree-3 locators, split cubics from three distinct exponents
// (shortened-away ones included), and rows with lambda3 = 0 (a root
// X = 0), lambda1^2 = lambda2 (p = 0, left to the Chien scan) and
// lambda1*lambda2 = lambda3 (q = 0, a repeated root).
func TestClosedFormRootsMatchChien(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	check := func(c *Code, lambda []uint16) bool {
		t.Helper()
		var fast, slow [MaxT]int
		nf, okf := c.errorPositions(lambda, &fast)
		ns, oks := c.chienSearch(lambda, &slow)
		if okf != oks {
			t.Fatalf("t=%d lambda %v: closed form ok=%v, Chien ok=%v", c.t, lambda, okf, oks)
		}
		if !okf {
			return false
		}
		got := append([]int(nil), fast[:nf]...)
		sort.Ints(got)
		if fmt.Sprint(got) != fmt.Sprint(slow[:ns]) {
			t.Fatalf("t=%d lambda %v: closed form %v, Chien %v", c.t, lambda, got, slow[:ns])
		}
		return true
	}
	c := mustCode(t, 6, false)
	for l1 := 0; l1 <= c.N(); l1++ {
		check(c, []uint16{1, uint16(l1)})
	}
	for k := 0; k < 20000; k++ {
		l1, l2 := uint16(rng.Intn(c.N()+1)), uint16(rng.Intn(c.N()+1))
		check(c, []uint16{1, l1, l2})
		check(c, []uint16{1, 0, l2})
		check(c, []uint16{1, l1, 0})
	}
	for tcap := 3; tcap <= MaxT; tcap++ {
		c := mustCode(t, tcap, false)
		f := c.field
		length := c.parityBits + line.Bits
		elem := func() uint16 { return uint16(rng.Intn(c.N() + 1)) }
		for k := 0; k < 5000; k++ {
			l1, l2, l3 := elem(), elem(), elem()
			check(c, []uint16{1, l1, l2, l3})
			check(c, []uint16{1, l1, l2, 0})
			check(c, []uint16{1, l1, f.Mul(l1, l1), l3})
			check(c, []uint16{1, l1, l2, f.Mul(l1, l2)})
			// A split cubic: the locator of three distinct exponents,
			// every other one inside the shortened length.
			span := c.N()
			if k%2 == 0 {
				span = length
			}
			e0, e1, e2 := rng.Intn(span), rng.Intn(span), rng.Intn(span)
			if e0 == e1 || e1 == e2 || e0 == e2 {
				continue
			}
			a, b, d := f.Alpha(e0), f.Alpha(e1), f.Alpha(e2)
			ab := f.Mul(a, b)
			lambda := []uint16{1, a ^ b ^ d, ab ^ f.Mul(a^b, d), f.Mul(ab, d)}
			if inside := max(e0, e1, e2) < length; check(c, lambda) != inside {
				t.Fatalf("t=%d exponents %d,%d,%d: ok=%v, want %v", tcap, e0, e1, e2, !inside, inside)
			}
		}
	}
}

func BenchmarkEncodeECC6(b *testing.B) {
	c, err := New(6)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	data := randLine(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Encode(data)
	}
}

func BenchmarkDecodeECC6SixErrors(b *testing.B) {
	c, err := New(6)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	data := randLine(rng)
	parity := c.Encode(data)
	cd, cp := corruptWord(rng, c, data, parity, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, res := c.Decode(cd, cp)
		if res.Uncorrectable {
			b.Fatal("uncorrectable")
		}
	}
}

// Property: the remainder syndromes (S_j = rem(alpha^j), with rem the
// received word mod g) agree with the bit-serial reference on random
// received words.
func TestSyndromeTableEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tcap := range []int{1, 3, 6} {
		c := mustCode(t, tcap, false)
		for trial := 0; trial < 50; trial++ {
			data := randLine(rng)
			parity := rng.Uint64() & ((1 << c.ParityBits()) - 1)
			fast := c.syndromes(data, parity)
			slow := c.syndromesBitwise(data, parity)
			for j := range fast {
				if fast[j] != slow[j] {
					t.Fatalf("t=%d trial=%d S%d: fast=%d slow=%d", tcap, trial, j+1, fast[j], slow[j])
				}
			}
		}
	}
}

// Differential property sweep over the whole code family: for every t in
// 1..6, extended and non-extended, the syndromes decode evaluates from
// the 10t-bit remainder must agree with the bit-serial reference over
// the whole codeword on random lines carrying random error patterns
// (valid codewords perturbed by 0..t+3 flips across data and parity) and
// on entirely unmasked random parity words — the fast path can never
// silently diverge.
func TestSyndromeRemainderDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	check := func(c *Code, data line.Line, parity uint64, desc string) {
		t.Helper()
		fast := c.syndromes(data, parity)
		slow := c.syndromesBitwise(data, parity)
		for j := range fast {
			if fast[j] != slow[j] {
				t.Fatalf("%s S%d: remainder=%d bitwise=%d", desc, j+1, fast[j], slow[j])
			}
		}
	}
	for tcap := 1; tcap <= 6; tcap++ {
		for _, extended := range []bool{false, true} {
			c := mustCode(t, tcap, extended)
			for trial := 0; trial < 25; trial++ {
				data := randLine(rng)
				// Random error pattern on a valid codeword.
				parity := c.Encode(data)
				nErr := rng.Intn(tcap + 4)
				cd, cp := corruptWord(rng, c, data, parity, nErr)
				check(c, cd, cp, fmt.Sprintf("t=%d ext=%v trial=%d nErr=%d", tcap, extended, trial, nErr))
				// Entirely random received word, high parity bits NOT
				// masked: both paths must ignore bits >= parityBits.
				check(c, randLine(rng), rng.Uint64(),
					fmt.Sprintf("t=%d ext=%v trial=%d random", tcap, extended, trial))
			}
		}
	}
}

// The decode hot path must be allocation-free on the clean (zero
// remainder) path and on every correction route (the one- and two-error
// hypotheses, the closed-form cubic for three errors, the Chien search
// for six), for both plain and extended codes, and so must Encode.
func TestDecodeZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, extended := range []bool{false, true} {
		c := mustCode(t, 6, extended)
		for _, nErr := range []int{0, 1, 2, 3, 6} {
			data := randLine(rng)
			cd, cp := corruptWord(rng, c, data, c.Encode(data), nErr)
			if n := testing.AllocsPerRun(200, func() {
				if _, res := c.Decode(cd, cp); res.Uncorrectable || res.CorrectedBits != nErr {
					t.Fatalf("ext=%v %d-error decode: %+v", extended, nErr, res)
				}
			}); n != 0 {
				t.Errorf("ext=%v %d-error Decode allocates %.1f times per run, want 0", extended, nErr, n)
			}
		}
	}
	// The detected-uncorrectable path matters for sweeps over badly
	// decayed memories; it must not allocate either.
	c := mustCode(t, 2, false)
	data := randLine(rng)
	cd, cp := corruptWord(rng, c, data, c.Encode(data), 5)
	for tries := 0; ; tries++ {
		if _, res := c.Decode(cd, cp); res.Uncorrectable {
			break
		}
		if tries == 100 {
			t.Fatal("no uncorrectable 5-error pattern in 100 draws")
		}
		cd, cp = corruptWord(rng, c, data, c.Encode(data), 5)
	}
	if n := testing.AllocsPerRun(200, func() { c.Decode(cd, cp) }); n != 0 {
		t.Errorf("uncorrectable Decode allocates %.1f times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { c.Encode(data) }); n != 0 {
		t.Errorf("Encode allocates %.1f times per run, want 0", n)
	}
}

// BenchmarkDecodeClean measures the dominant sweep case: a codeword with
// no errors (syndromes all zero, nothing after the first pass).
func BenchmarkDecodeClean(b *testing.B) {
	c, err := New(6)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(30))
	data := randLine(rng)
	parity := c.Encode(data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, res := c.Decode(data, parity)
		if res.Uncorrectable || res.CorrectedBits != 0 {
			b.Fatal("clean decode failed")
		}
	}
}

// benchDecodeErrors measures an ECC-6 decode of a line carrying nErr
// random bit errors.
func benchDecodeErrors(b *testing.B, nErr int, seed int64) {
	c, err := New(6)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	data := randLine(rng)
	cd, cp := corruptWord(rng, c, data, c.Encode(data), nErr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, res := c.Decode(cd, cp)
		if res.Uncorrectable || res.CorrectedBits != nErr {
			b.Fatalf("%d-error decode: %+v", nErr, res)
		}
	}
}

// BenchmarkDecodeOneError measures a single-error decode, a degree-1
// locator: the commonest correction at any BER low enough to matter.
func BenchmarkDecodeOneError(b *testing.B) { benchDecodeErrors(b, 1, 33) }

// BenchmarkDecodeTwoErrors measures a double-error decode, a degree-2
// locator.
func BenchmarkDecodeTwoErrors(b *testing.B) { benchDecodeErrors(b, 2, 34) }

// BenchmarkDecodeThreeErrors measures a triple-error decode, a degree-3
// locator.
func BenchmarkDecodeThreeErrors(b *testing.B) { benchDecodeErrors(b, 3, 35) }

// BenchmarkDecodeT6 measures the worst correctable case: six errors
// through the full syndrome/BM/Chien/recheck pipeline.
func BenchmarkDecodeT6(b *testing.B) {
	c, err := New(6)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	data := randLine(rng)
	parity := c.Encode(data)
	cd, cp := corruptWord(rng, c, data, parity, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, res := c.Decode(cd, cp)
		if res.Uncorrectable {
			b.Fatal("uncorrectable")
		}
	}
}

func BenchmarkSyndromesFast(b *testing.B) {
	c, err := New(6)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	data := randLine(rng)
	parity := c.Encode(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.syndromes(data, parity)
	}
}

func BenchmarkSyndromesBitwise(b *testing.B) {
	c, err := New(6)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	data := randLine(rng)
	parity := c.Encode(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.syndromesBitwise(data, parity)
	}
}

// TestEncodePositionalMatchesLFSR pins the position-indexed table encoder
// to the serial LFSR reference across every supported code.
func TestEncodePositionalMatchesLFSR(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for tcap := 1; tcap <= MaxT; tcap++ {
		for _, ext := range []bool{false, true} {
			c := mustCode(t, tcap, ext)
			for trial := 0; trial < 50; trial++ {
				data := randLine(rng)
				if got, want := c.Encode(data), c.encodeLFSR(data); got != want {
					t.Fatalf("t=%d ext=%v: positional %#x != LFSR %#x", tcap, ext, got, want)
				}
			}
			var zero line.Line
			if got, want := c.Encode(zero), c.encodeLFSR(zero); got != want {
				t.Fatalf("t=%d ext=%v zero line: positional %#x != LFSR %#x", tcap, ext, got, want)
			}
		}
	}
}

// TestScreenCleanMatchesDecode checks the screen's contract: true exactly
// when Decode returns a zero Result (no correction, no detection).
func TestScreenCleanMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for tcap := 1; tcap <= MaxT; tcap++ {
		for _, ext := range []bool{false, true} {
			c := mustCode(t, tcap, ext)
			for trial := 0; trial < 40; trial++ {
				data := randLine(rng)
				parity := c.Encode(data)
				// Junk above the stored width must be ignored, as in Decode.
				parity |= rng.Uint64() << c.ParityBits()
				nErr := rng.Intn(tcap + 2)
				cd, cp := corruptWord(rng, c, data, parity, nErr)
				_, res := c.Decode(cd, cp)
				wantClean := res.CorrectedBits == 0 && !res.Uncorrectable
				if got := c.ScreenClean(cd, cp); got != wantClean {
					t.Fatalf("t=%d ext=%v nErr=%d: ScreenClean=%v, Decode result %+v", tcap, ext, nErr, got, res)
				}
			}
		}
	}
}

// TestScreenCleanExtensionBit: a flip confined to the extension bit must
// fail the screen (Decode reports a correction there).
func TestScreenCleanExtensionBit(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	c := mustCode(t, 6, true)
	data := randLine(rng)
	parity := c.Encode(data)
	flipped := parity ^ (uint64(1) << c.parityBits)
	if !c.ScreenClean(data, parity) {
		t.Fatal("clean codeword failed screen")
	}
	if c.ScreenClean(data, flipped) {
		t.Fatal("extension-bit flip passed screen")
	}
}

// TestEncodeScreenZeroAllocs proves the table encoder and the screen are
// allocation-free, the property the sharded sweep relies on.
func TestEncodeScreenZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	c := mustCode(t, 6, true)
	data := randLine(rng)
	parity := c.Encode(data)
	if n := testing.AllocsPerRun(100, func() {
		_ = c.Encode(data)
		_ = c.ScreenClean(data, parity)
	}); n != 0 {
		t.Fatalf("Encode+ScreenClean allocate %v per run, want 0", n)
	}
}
