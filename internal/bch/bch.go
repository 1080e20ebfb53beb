// Package bch implements systematic binary BCH codes over GF(2^m) for
// protecting 512-bit (64-byte) cache lines, the strong error-correcting
// codes that Morphable ECC uses in idle mode (paper Section III-E).
//
// A t-error-correcting code for 512 data bits lives in GF(2^10)
// (n = 1023, shortened), costing 10*t parity bits: ECC-6 therefore needs 60
// parity bits, exactly the budget the paper carves out of the 64 spare ECC
// bits of a (72,64)-equipped memory. The decoder works from the remainder
// of the received word modulo the generator: a zero remainder is a clean
// word, otherwise the syndromes come from the remainder, Berlekamp–Massey
// gives the error locator, its roots (closed form for one or two errors,
// a Chien search beyond) give the positions, and a post-correction
// remainder check makes miscorrections surface as detected-uncorrectable
// instead of silent corruption.
package bch

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/gf2"
	"repro/internal/line"
)

// Errors returned by code construction and use.
var (
	ErrBadT        = errors.New("bch: t must be in [1,6]")
	ErrNoField     = errors.New("bch: no field large enough for requested code")
	ErrParityWidth = errors.New("bch: parity does not fit the provided width")
)

// MaxT is the strongest supported correction capability; it bounds every
// decoder scratch array (2t syndromes, t+1 locator coefficients, t error
// positions), which is what lets the whole decode pipeline live on the
// stack with zero heap allocations.
const MaxT = 6

// maxSyn is the syndrome count of the strongest code.
const maxSyn = 2 * MaxT

// Result describes the outcome of a decode.
type Result struct {
	// CorrectedBits is the number of bit errors the decoder repaired
	// (data and parity bits both count).
	CorrectedBits int
	// Uncorrectable is set when the decoder established that more errors
	// are present than the code can correct. The returned data is then
	// the received data, unmodified.
	Uncorrectable bool
}

// Code is a t-error-correcting binary BCH code for line.Bits data bits,
// optionally extended with an overall parity bit that raises detection to
// t+1 errors (the "6-bit correction, 7-bit detection" variant in the
// paper). Code is immutable after construction and safe for concurrent use.
type Code struct {
	field      *gf2.Field
	t          int
	n          int // natural code length 2^m - 1
	parityBits int // deg(g), excluding the extension bit
	extended   bool
	gen        gf2.Poly2
	// encTable[b] is the generator-polynomial remainder contribution of
	// data byte value b, enabling byte-at-a-time encoding when parity
	// fits in 64 bits (encodeLFSR, the serial reference in the tests).
	encTable *[256]uint64
	genMask  uint64
	// encPos[p][v] is the remainder contribution of data byte p (bits
	// 8p..8p+7 of the line, codeword exponents parityBits+8p..+8p+7)
	// holding value v. Remainders are GF(2)-linear in the data, so the
	// full parity is the XOR of 64 independent table lookups — unlike the
	// LFSR register walk, the lookups carry no loop-to-loop dependency,
	// so the encoder runs at memory-port speed.
	encPos *[64][256]uint64
	// Byte-at-a-time syndrome tables: for syndrome j (1-based),
	// synTable[j-1][v] evaluates the byte polynomial v at alpha^j, and
	// synStep[j-1] is the dense constant-multiplication table of
	// alpha^(8j) (synStep[j-1][x] = x * alpha^(8j)), which advances the
	// Horner accumulator by one byte in a single lookup.
	synTable [][256]uint16
	synStep  [][]uint16
	// chienStep[k-1] is the dense constant-multiplication table of
	// alpha^-k, the per-position update factor of locator term k in the
	// incremental Chien search.
	chienStep [][]uint16
	// log[x] is the discrete log of field element x != 0 (alpha^log[x]
	// = x). The decoder keeps its own table rather than calling
	// gf2.Field.Log, whose error path allocates.
	log []uint16
	// quadRoot[c] is one solution y of y^2 + y = c, or 0 when there is
	// none; the other solution is y^1. It solves degree-2 locators in
	// closed form.
	quadRoot []uint16
}

// New constructs a t-error-correcting BCH code for 512 data bits.
func New(t int) (*Code, error) {
	return newCode(t, false)
}

// NewExtended constructs a t-error-correcting, (t+1)-error-detecting BCH
// code: the base code plus one overall parity bit.
func NewExtended(t int) (*Code, error) {
	return newCode(t, true)
}

func newCode(t int, extended bool) (*Code, error) {
	// t is capped at MaxT so that parity (10t bits, +1 extended) fits the
	// 64-bit check word — the same 64-bit spare budget the paper has.
	if t < 1 || t > MaxT {
		return nil, fmt.Errorf("%w: t=%d", ErrBadT, t)
	}
	// Smallest m with room for data + parity in 2^m - 1 positions.
	m := 0
	for cand := 4; cand <= 16; cand++ {
		if line.Bits+cand*t <= (1<<cand)-1 {
			m = cand
			break
		}
	}
	if m == 0 {
		return nil, ErrNoField
	}
	f, err := gf2.NewField(m)
	if err != nil {
		return nil, fmt.Errorf("bch: build field: %w", err)
	}
	// Generator polynomial: lcm of minimal polynomials of alpha^1..alpha^2t.
	// Even powers share cosets with odd ones, so odd indices suffice.
	polys := make([]gf2.Poly2, 0, t)
	for i := 1; i <= 2*t; i += 2 {
		polys = append(polys, f.MinimalPoly(i))
	}
	gen := gf2.LCM2(polys...)
	c := &Code{
		field:      f,
		t:          t,
		n:          f.Order(),
		parityBits: gen.Degree(),
		extended:   extended,
		gen:        gen,
	}
	if c.parityBits > 64 {
		return nil, fmt.Errorf("%w: %d parity bits", ErrParityWidth, c.parityBits)
	}
	c.buildEncTable()
	c.buildSynTables()
	return c, nil
}

// buildSynTables precomputes the byte-wise syndrome evaluation tables
// and the root-finding tables.
func (c *Code) buildSynTables() {
	f := c.field
	c.synTable = make([][256]uint16, 2*c.t)
	c.synStep = make([][]uint16, 2*c.t)
	c.chienStep = make([][]uint16, c.t)
	for k := 1; k <= c.t; k++ {
		c.chienStep[k-1] = f.MulTable(f.Alpha(f.Order() - k))
	}
	for j := 1; j <= 2*c.t; j++ {
		c.synStep[j-1] = f.MulTable(f.Alpha(8 * j))
		// powers[k] = alpha^(j*k) for bit k of a byte.
		var powers [8]uint16
		for k := 0; k < 8; k++ {
			powers[k] = f.Alpha(j * k)
		}
		for v := 0; v < 256; v++ {
			var acc uint16
			for k := 0; k < 8; k++ {
				if v>>k&1 == 1 {
					acc ^= powers[k]
				}
			}
			c.synTable[j-1][v] = acc
		}
	}
	c.log = make([]uint16, c.n+1)
	for i := 0; i < c.n; i++ {
		c.log[f.Alpha(i)] = uint16(i)
	}
	// y and y^1 give the same c; y = 0 and y = 1 give c = 0, which no
	// degree-2 locator produces, so 0 is free to mean "no solution".
	c.quadRoot = make([]uint16, c.n+1)
	for y := 2; y <= c.n; y++ {
		c.quadRoot[f.Mul(uint16(y), uint16(y))^uint16(y)] = uint16(y)
	}
}

// buildEncTable precomputes the LFSR remainder table for byte-at-a-time
// systematic encoding. The remainder register holds deg(g) bits in the low
// bits of a uint64.
func (c *Code) buildEncTable() {
	deg := c.parityBits
	var gmask uint64
	for i := 0; i < deg; i++ {
		gmask |= uint64(c.gen.Coeff(i)) << i
	}
	c.genMask = gmask
	var tbl [256]uint64
	top := uint64(1) << (deg - 1)
	for b := 0; b < 256; b++ {
		// Feed the byte MSB-first into the LFSR.
		var reg uint64
		for bit := 7; bit >= 0; bit-- {
			in := uint64(b>>bit) & 1
			fb := (reg & top) >> (deg - 1)
			reg = (reg << 1) & ((top << 1) - 1)
			if fb^in == 1 {
				reg ^= gmask
			}
		}
		tbl[b] = reg
	}
	c.encTable = &tbl
	c.buildEncPosTables()
}

// buildEncPosTables precomputes the position-indexed remainder tables:
// encPos[p][v] = (v(x) * x^(parityBits+8p)) mod g(x). Monomial
// remainders are generated incrementally (multiply by x, reduce), and
// each byte table is filled by the lowest-set-bit subset trick, so
// construction is O(dataBits + 64*256).
func (c *Code) buildEncPosTables() {
	deg := c.parityBits
	g := c.genMask | uint64(1)<<deg
	// pow = x^(parityBits) mod g to start; advance one exponent per step.
	pow := c.genMask
	var tbl [64][256]uint64
	for p := 0; p < 64; p++ {
		for b := 0; b < 8; b++ {
			bitpow := pow
			for v := 1 << b; v < 1<<(b+1); v++ {
				tbl[p][v] = tbl[p][v-1<<b] ^ bitpow
			}
			// pow *= x mod g.
			pow <<= 1
			if pow>>deg&1 == 1 {
				pow ^= g
			}
		}
	}
	c.encPos = &tbl
}

// T returns the correction capability.
func (c *Code) T() int { return c.t }

// N returns the natural code length 2^m - 1.
func (c *Code) N() int { return c.n }

// ParityBits returns the total parity width, including the extension bit
// when the code is extended.
func (c *Code) ParityBits() int {
	if c.extended {
		return c.parityBits + 1
	}
	return c.parityBits
}

// Extended reports whether the code carries an overall parity bit.
func (c *Code) Extended() bool { return c.extended }

// Generator returns the generator polynomial g(x).
func (c *Code) Generator() gf2.Poly2 { return c.gen }

// FieldM returns m of the underlying GF(2^m).
func (c *Code) FieldM() int { return c.field.M() }

// Encode computes the parity bits for a line. Parity occupies the low
// ParityBits() bits of the returned word; when extended, the overall
// parity bit is the highest of those bits.
func (c *Code) Encode(data line.Line) uint64 {
	obsEncodes.Inc()
	return c.encode(&data)
}

// encode is Encode without the telemetry count: EncodeBatch counts its
// lines once per chunk rather than bumping the shared atomic per line.
func (c *Code) encode(data *line.Line) uint64 {
	reg := c.encodeRemainder(data)
	if c.extended {
		reg |= c.overallParity(*data, reg) << c.parityBits
	}
	return reg
}

// encodeRemainder evaluates the base parity (the generator-polynomial
// remainder of the data) via the position-indexed tables: eight
// independent lookups per word, XORed together. Byte p of the line is
// word p/8 shifted by 8*(p%8); codeword exponents rise with the byte
// index, matching the encPos construction.
func (c *Code) encodeRemainder(data *line.Line) uint64 {
	var reg uint64
	for w, word := range data {
		t := c.encPos
		base := w * 8
		reg ^= t[base][byte(word)] ^
			t[base+1][byte(word>>8)] ^
			t[base+2][byte(word>>16)] ^
			t[base+3][byte(word>>24)] ^
			t[base+4][byte(word>>32)] ^
			t[base+5][byte(word>>40)] ^
			t[base+6][byte(word>>48)] ^
			t[base+7][byte(word>>56)]
	}
	return reg
}

// ScreenClean reports whether (data, parity) is a clean received word:
// every syndrome zero and, for extended codes, the overall parity bit
// matching — exactly the condition under which Decode returns a zero
// Result. The screen rides the systematic-code identity "all syndromes
// vanish iff g divides the received polynomial iff re-encoding the data
// reproduces the stored base parity", so it costs one table encode and
// a compare, the same remainder test Decode starts with. Parity bits
// above ParityBits() are ignored, as in Decode.
func (c *Code) ScreenClean(data line.Line, parity uint64) bool {
	base := parity & (uint64(1)<<c.parityBits - 1)
	if c.encodeRemainder(&data) != base {
		return false
	}
	if c.extended {
		return c.overallParity(data, base) == (parity>>c.parityBits)&1
	}
	return true
}

// overallParity returns the XOR of all data and base-parity bits.
func (c *Code) overallParity(data line.Line, parity uint64) uint64 {
	return uint64(data.PopCount()+bits.OnesCount64(parity)) & 1
}

// Decode checks and repairs a received (data, parity) pair. The returned
// line is the corrected data. Parity errors are corrected internally but
// not returned, since the caller re-encodes on write-back.
//
// Decode performs no heap allocations: syndromes, the Berlekamp–Massey
// locator and the error positions all live in fixed-size stack arrays
// bounded by MaxT (guarded by TestDecodeZeroAllocs).
func (c *Code) Decode(data line.Line, parity uint64) (line.Line, Result) {
	out, res := c.decode(data, parity)
	noteDecode(res)
	return out, res
}

// decode is the telemetry-free correction pipeline behind Decode.
//
// It works from rem = R(x) mod g(x), the remainder of the received word
// R(x) = D(x)*x^parityBits + P(x): the re-encoded data parity XOR the
// stored parity, 64 independent table lookups. Every alpha^j with
// j <= 2t is a root of g, so S_j = R(alpha^j) = rem(alpha^j): all 2t
// syndromes vanish exactly when rem is zero, and otherwise they are
// evaluated over rem's eight bytes rather than the codeword's 72.
func (c *Code) decode(data line.Line, parity uint64) (line.Line, Result) {
	deg := c.parityBits
	extBit := (parity >> deg) & 1
	parity &= (uint64(1) << deg) - 1
	extOK := true
	if c.extended {
		extOK = c.overallParity(data, parity) == extBit
	}
	rem := c.encodeRemainder(&data) ^ parity
	if rem == 0 {
		if !extOK {
			// Single error in the extension bit itself.
			return data, Result{CorrectedBits: 1}
		}
		return data, Result{}
	}

	var synd [maxSyn]uint16
	c.remSyndromes(rem, &synd)
	var lambda [maxSyn + 1]uint16
	degL, ok := c.berlekampMassey(synd[:2*c.t], &lambda)
	if !ok {
		return data, Result{Uncorrectable: true}
	}
	var positions [MaxT]int
	nPos, ok := c.errorPositions(lambda[:degL+1], &positions)
	if !ok {
		return data, Result{Uncorrectable: true}
	}
	if c.extended {
		// Parity of the error count must match the extension-bit
		// discrepancy; a mismatch means >t errors (e.g. t+1) slipped
		// into a correctable-looking pattern.
		errParity := uint64(nPos) & 1
		wantParity := uint64(0)
		if !extOK {
			wantParity = 1
		}
		if errParity != wantParity {
			return data, Result{Uncorrectable: true}
		}
	}

	// Correct, and XOR each corrected position's own remainder into rem:
	// x^pos for a parity bit, the encPos entry for a data bit. The
	// corrected word is a codeword (all 2t syndromes vanish) exactly when
	// rem ends at zero; otherwise the decoder was about to miscorrect.
	corrected := data
	for _, pos := range positions[:nPos] {
		if pos < deg {
			rem ^= uint64(1) << pos
			continue
		}
		i := pos - deg
		corrected = corrected.FlipBit(i)
		rem ^= c.encPos[i/8][1<<(i%8)]
	}
	if rem != 0 {
		return data, Result{Uncorrectable: true}
	}
	return corrected, Result{CorrectedBits: nPos}
}

// remSyndromes computes S_1..S_2t from the remainder rem = R(x) mod g(x)
// into the caller-provided scratch array, without allocating: 2t Horner
// accumulators advance over rem's eight bytes, top byte first, each step
// one synStep constant multiply and one synTable byte evaluation.
func (c *Code) remSyndromes(rem uint64, out *[maxSyn]uint16) {
	nSyn := 2 * c.t
	*out = [maxSyn]uint16{}
	for s := 56; s >= 0; s -= 8 {
		b := rem >> uint(s) & 0xff
		for j := 0; j < nSyn; j++ {
			out[j] = c.synStep[j][out[j]] ^ c.synTable[j][b]
		}
	}
}

// berlekampMassey finds the error-locator polynomial Lambda from the
// syndromes, writing its coefficients into the caller-provided array and
// returning its degree. It returns ok=false when the implied error count
// exceeds t. All working state lives in fixed-size stack arrays bounded
// by the maximum syndrome count, so the routine never allocates.
func (c *Code) berlekampMassey(synd []uint16, lambda *[maxSyn + 1]uint16) (int, bool) {
	f := c.field
	nSyn := len(synd)
	nLam := nSyn + 1 // logical length; array entries beyond it stay zero
	var prev [maxSyn + 1]uint16
	*lambda = [maxSyn + 1]uint16{}
	lambda[0], prev[0] = 1, 1
	l := 0
	m := 1
	b := uint16(1)
	for r := 0; r < nSyn; r++ {
		// Discrepancy d = S_r + sum lambda_i * S_{r-i}.
		d := synd[r]
		for i := 1; i <= l; i++ {
			d ^= f.Mul(lambda[i], synd[r-i])
		}
		if d == 0 {
			m++
			continue
		}
		// coef = d/b; b is 1 or an earlier nonzero discrepancy.
		coef := f.Alpha(int(c.log[d]) + c.n - int(c.log[b]))
		tmp := *lambda
		for i := 0; i+m < nLam; i++ {
			lambda[i+m] ^= f.Mul(coef, prev[i])
		}
		if 2*l <= r {
			l = r + 1 - l
			prev = tmp
			b = d
			m = 1
		} else {
			m++
		}
	}
	if l > c.t {
		return 0, false
	}
	return l, true
}

// errorPositions finds the roots of the locator Lambda (lambda[0] = 1)
// as codeword exponents, writing them into the caller-provided array and
// returning how many were found. It returns ok=false unless Lambda has
// deg(Lambda) distinct roots, all within the shortened length: a root at
// a shortened-away position, a repeated root or a missing root means
// more errors than the code can correct. Degrees 1 and 2 are solved in
// closed form; higher degrees run the Chien search. The positions are
// those chienSearch reports, though not necessarily in rising order.
func (c *Code) errorPositions(lambda []uint16, out *[MaxT]int) (int, bool) {
	switch len(lambda) - 1 {
	case 1:
		return c.root1(lambda[1], out)
	case 2:
		return c.roots2(lambda[1], lambda[2], out)
	}
	return c.chienSearch(lambda, out)
}

// root1 solves Lambda(x) = 1 + l1*x. Its root 1/l1 equals alpha^-i for
// the error at exponent i, so i = log l1.
func (c *Code) root1(l1 uint16, out *[MaxT]int) (int, bool) {
	if l1 == 0 {
		return 0, false
	}
	i := int(c.log[l1])
	if i >= c.parityBits+line.Bits {
		return 0, false
	}
	out[0] = i
	return 1, true
}

// roots2 solves Lambda(x) = 1 + l1*x + l2*x^2. Substituting
// x = (l1/l2)*y gives (l1^2/l2)*(y^2 + y + l2/l1^2), so the roots are
// x = (l1/l2)*y for the two solutions y of y^2 + y = l2/l1^2, read from
// quadRoot. A root x = alpha^-i marks the error at exponent
// i = log(l2/l1) - log y. l1 = 0 leaves one repeated root, l2 = 0 a
// degree-1 polynomial, and a c with no solution no root at all.
func (c *Code) roots2(l1, l2 uint16, out *[MaxT]int) (int, bool) {
	if l1 == 0 || l2 == 0 {
		return 0, false
	}
	n := c.n
	lq := int(c.log[l2]) + n - int(c.log[l1]) // log(l2/l1), in [1, 2n)
	y := c.quadRoot[c.field.Alpha(lq+n-int(c.log[l1]))]
	if y == 0 {
		return 0, false
	}
	length := c.parityBits + line.Bits
	i0 := (lq + n - int(c.log[y])) % n
	i1 := (lq + n - int(c.log[y^1])) % n
	if i0 >= length || i1 >= length {
		return 0, false
	}
	out[0], out[1] = i0, i1
	return 2, true
}

// chienSearch finds error positions as codeword exponents, writing them
// into the caller-provided array and returning how many were found. It
// returns ok=false when the locator does not split into deg(Lambda)
// distinct roots within the shortened length.
//
// The search is incremental: successive evaluation points differ by a
// factor alpha^-1, so term k of the sum is updated by one multiply with
// alpha^-k instead of re-running Horner, and the scan exits as soon as
// deg(Lambda) roots are found.
func (c *Code) chienSearch(lambda []uint16, out *[MaxT]int) (int, bool) {
	degL := len(lambda) - 1
	if degL == 0 {
		return 0, false
	}
	length := c.parityBits + line.Bits
	// Error at position i corresponds to root alpha^(-i) of Lambda; the
	// first evaluation point is alpha^(n-0) = 1, so terms start at the
	// raw coefficients, and each step multiplies term k by alpha^-k via
	// its dense chienStep table (no log/antilog lookups or zero tests).
	var terms [MaxT + 1]uint16
	for k := 0; k <= degL; k++ {
		terms[k] = lambda[k]
	}
	found := 0
	for i := 0; i < length; i++ {
		// Evaluate at the current point and advance every term to the
		// next one in the same pass.
		v := terms[0]
		for k := 1; k <= degL; k++ {
			tk := terms[k]
			v ^= tk
			terms[k] = c.chienStep[k-1][tk]
		}
		if v == 0 {
			out[found] = i
			found++
			if found == degL {
				return found, true
			}
		}
	}
	return found, false
}
