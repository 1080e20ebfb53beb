package gf2

import (
	"fmt"
	"math/bits"
	"strings"
)

// Poly2 is a polynomial over GF(2), stored as a little-endian bit vector:
// word w bit b is the coefficient of x^(64w+b). The zero polynomial is an
// empty or all-zero slice. Poly2 values are treated as immutable; all
// operations return fresh slices.
type Poly2 []uint64

// NewPoly2 builds a polynomial from the exponents of its nonzero terms.
func NewPoly2(exponents ...int) Poly2 {
	var p Poly2
	for _, e := range exponents {
		p = p.SetCoeff(e, 1)
	}
	return p
}

// Degree returns the degree of p, or -1 for the zero polynomial.
func (p Poly2) Degree() int {
	for w := len(p) - 1; w >= 0; w-- {
		if p[w] != 0 {
			return w*64 + 63 - bits.LeadingZeros64(p[w])
		}
	}
	return -1
}

// Coeff returns the coefficient of x^i.
func (p Poly2) Coeff(i int) uint {
	w := i >> 6
	if w >= len(p) {
		return 0
	}
	return uint(p[w]>>(uint(i)&63)) & 1
}

// SetCoeff returns a copy of p with the coefficient of x^i set to v.
func (p Poly2) SetCoeff(i int, v uint) Poly2 {
	w := i >> 6
	out := make(Poly2, max(len(p), w+1))
	copy(out, p)
	mask := uint64(1) << (uint(i) & 63)
	if v&1 == 1 {
		out[w] |= mask
	} else {
		out[w] &^= mask
	}
	return out
}

// Add returns p + q (XOR).
func (p Poly2) Add(q Poly2) Poly2 {
	out := make(Poly2, max(len(p), len(q)))
	copy(out, p)
	for w := range q {
		out[w] ^= q[w]
	}
	return out
}

// Shift returns p * x^k for k >= 0.
func (p Poly2) Shift(k int) Poly2 {
	d := p.Degree()
	if d < 0 {
		return nil
	}
	out := make(Poly2, (d+k)/64+1)
	wordShift, bitShift := k/64, uint(k%64)
	for w := len(p) - 1; w >= 0; w-- {
		if p[w] == 0 {
			continue
		}
		out[w+wordShift] ^= p[w] << bitShift
		if bitShift != 0 && w+wordShift+1 < len(out) {
			out[w+wordShift+1] ^= p[w] >> (64 - bitShift)
		}
	}
	return out
}

// Mul returns p * q over GF(2).
func (p Poly2) Mul(q Poly2) Poly2 {
	dp, dq := p.Degree(), q.Degree()
	if dp < 0 || dq < 0 {
		return nil
	}
	out := make(Poly2, (dp+dq)/64+1)
	for i := 0; i <= dp; i++ {
		if p.Coeff(i) == 0 {
			continue
		}
		wordShift, bitShift := i/64, uint(i%64)
		for w := range q {
			if q[w] == 0 {
				continue
			}
			out[w+wordShift] ^= q[w] << bitShift
			if bitShift != 0 && w+wordShift+1 < len(out) {
				out[w+wordShift+1] ^= q[w] >> (64 - bitShift)
			}
		}
	}
	return out
}

// DivMod returns the quotient and remainder of p / q. It panics only for a
// zero divisor, which is reported as an error instead.
func (p Poly2) DivMod(q Poly2) (quot, rem Poly2, err error) {
	dq := q.Degree()
	if dq < 0 {
		return nil, nil, fmt.Errorf("gf2: polynomial %w", ErrDivByZero)
	}
	rem = make(Poly2, len(p))
	copy(rem, p)
	dr := rem.Degree()
	if dr < dq {
		return nil, rem, nil
	}
	quot = make(Poly2, dr/64+1)
	for dr >= dq {
		k := dr - dq
		quot[k>>6] |= 1 << (uint(k) & 63)
		// rem -= q << k, done in place.
		wordShift, bitShift := k/64, uint(k%64)
		for w := 0; w*64 <= dq; w++ {
			if q[w] == 0 {
				continue
			}
			rem[w+wordShift] ^= q[w] << bitShift
			if bitShift != 0 && w+wordShift+1 < len(rem) {
				rem[w+wordShift+1] ^= q[w] >> (64 - bitShift)
			}
		}
		dr = rem.Degree()
	}
	return quot, rem, nil
}

// Mod returns p mod q.
func (p Poly2) Mod(q Poly2) (Poly2, error) {
	_, rem, err := p.DivMod(q)
	return rem, err
}

// Equal reports whether p and q denote the same polynomial.
func (p Poly2) Equal(q Poly2) bool {
	n := max(len(p), len(q))
	for w := 0; w < n; w++ {
		var a, b uint64
		if w < len(p) {
			a = p[w]
		}
		if w < len(q) {
			b = q[w]
		}
		if a != b {
			return false
		}
	}
	return true
}

// String renders the polynomial as a sum of monomials, highest degree first.
func (p Poly2) String() string {
	d := p.Degree()
	if d < 0 {
		return "0"
	}
	var terms []string
	for i := d; i >= 0; i-- {
		if p.Coeff(i) == 0 {
			continue
		}
		switch i {
		case 0:
			terms = append(terms, "1")
		case 1:
			terms = append(terms, "x")
		default:
			terms = append(terms, fmt.Sprintf("x^%d", i))
		}
	}
	return strings.Join(terms, " + ")
}

// MinimalPoly returns the minimal polynomial over GF(2) of alpha^i in f:
// the product of (x - alpha^j) over the cyclotomic coset of i.
func (f *Field) MinimalPoly(i int) Poly2 {
	n := f.Order()
	i %= n
	// Collect the cyclotomic coset {i, 2i, 4i, ...} mod n.
	coset := []int{i}
	for j := (i * 2) % n; j != i; j = (j * 2) % n {
		coset = append(coset, j)
	}
	// Multiply (x + alpha^j) factors over GF(2^m); the product of a full
	// conjugate set is guaranteed to have 0/1 coefficients.
	prod := NewFPoly(1)
	for _, j := range coset {
		prod = prod.Mul(f, NewFPoly(f.Alpha(j), 1))
	}
	var out Poly2
	for k, c := range prod {
		if c == 1 {
			out = out.SetCoeff(k, 1)
		} else if c != 0 {
			// invariant: a minimal polynomial over GF(2) has binary coefficients.
			panic(fmt.Sprintf("gf2: minimal polynomial of alpha^%d has non-binary coefficient %d", i, c))
		}
	}
	return out
}

// LCM2 returns the least common multiple of binary polynomials, computed by
// repeated GCD. A zero input yields the zero polynomial.
func LCM2(ps ...Poly2) Poly2 {
	if len(ps) == 0 {
		return NewPoly2(0)
	}
	acc := ps[0]
	for _, p := range ps[1:] {
		if acc.Degree() < 0 || p.Degree() < 0 {
			return nil
		}
		g := GCD2(acc, p)
		q, _, err := acc.Mul(p).DivMod(g)
		if err != nil {
			// invariant: g divides acc*p and is nonzero.
			panic(err)
		}
		acc = q
	}
	return acc
}

// GCD2 returns the greatest common divisor of two binary polynomials.
func GCD2(a, b Poly2) Poly2 {
	for b.Degree() >= 0 {
		_, r, err := a.DivMod(b)
		if err != nil {
			// invariant: loop condition guarantees b != 0.
			panic(err)
		}
		a, b = b, r
	}
	return a
}
