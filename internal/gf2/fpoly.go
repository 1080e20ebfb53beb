package gf2

import (
	"fmt"
	"strings"
)

// FPoly is a polynomial with coefficients in GF(2^m): coefficient of x^i
// at index i. The zero polynomial is an empty (or all-zero) slice.
// Operations take the field explicitly and return fresh slices; FPoly
// values are treated as immutable.
type FPoly []uint16

// NewFPoly builds a polynomial from its coefficients (index = degree).
func NewFPoly(coeffs ...uint16) FPoly {
	out := make(FPoly, len(coeffs))
	copy(out, coeffs)
	return out
}

// Degree returns the degree, or -1 for the zero polynomial.
func (p FPoly) Degree() int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return i
		}
	}
	return -1
}

// Equal reports whether two polynomials are identical (ignoring trailing
// zeros).
func (p FPoly) Equal(q FPoly) bool {
	d := p.Degree()
	if d != q.Degree() {
		return false
	}
	for i := 0; i <= d; i++ {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Add returns p + q (coefficient-wise XOR in characteristic 2).
func (p FPoly) Add(q FPoly) FPoly {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	out := make(FPoly, n)
	copy(out, p)
	for i, c := range q {
		out[i] ^= c
	}
	return out
}

// Mul returns p * q over the field.
func (p FPoly) Mul(f *Field, q FPoly) FPoly {
	dp, dq := p.Degree(), q.Degree()
	if dp < 0 || dq < 0 {
		return nil
	}
	out := make(FPoly, dp+dq+1)
	for i := 0; i <= dp; i++ {
		if p[i] == 0 {
			continue
		}
		for j := 0; j <= dq; j++ {
			out[i+j] ^= f.Mul(p[i], q[j])
		}
	}
	return out
}

// Eval evaluates p at x by Horner's rule.
func (p FPoly) Eval(f *Field, x uint16) uint16 {
	return f.Eval(p, x)
}

// String renders the polynomial for diagnostics.
func (p FPoly) String() string {
	d := p.Degree()
	if d < 0 {
		return "0"
	}
	var terms []string
	for i := d; i >= 0; i-- {
		c := p[i]
		if c == 0 {
			continue
		}
		switch {
		case i == 0:
			terms = append(terms, fmt.Sprintf("%d", c))
		case i == 1 && c == 1:
			terms = append(terms, "x")
		case i == 1:
			terms = append(terms, fmt.Sprintf("%d·x", c))
		case c == 1:
			terms = append(terms, fmt.Sprintf("x^%d", i))
		default:
			terms = append(terms, fmt.Sprintf("%d·x^%d", c, i))
		}
	}
	return strings.Join(terms, " + ")
}
