// Package gf2 implements arithmetic over binary Galois fields GF(2^m) and
// polynomials over GF(2), the algebraic substrate for the BCH codes MECC
// uses as its strong ECC (Section III-E of the paper).
//
// Fields are represented with log/antilog tables built from a primitive
// polynomial, which makes multiply/divide/inverse O(1) — the Go analogue of
// the XOR-tree hardware the paper budgets gates for.
package gf2

import (
	"errors"
	"fmt"
)

// Errors returned by field construction and arithmetic.
var (
	ErrBadM         = errors.New("gf2: m must be in [2,16]")
	ErrNotPrimitive = errors.New("gf2: polynomial is not primitive")
	ErrDivByZero    = errors.New("gf2: division by zero")
)

// defaultPrimitive maps m to a conventional primitive polynomial for
// GF(2^m), given as a bit mask including the x^m term. These are the
// standard choices tabulated in Lin & Costello.
var defaultPrimitive = map[int]uint32{
	2:  0x7,     // x^2+x+1
	3:  0xb,     // x^3+x+1
	4:  0x13,    // x^4+x+1
	5:  0x25,    // x^5+x^2+1
	6:  0x43,    // x^6+x+1
	7:  0x89,    // x^7+x^3+1
	8:  0x11d,   // x^8+x^4+x^3+x^2+1
	9:  0x211,   // x^9+x^4+1
	10: 0x409,   // x^10+x^3+1
	11: 0x805,   // x^11+x^2+1
	12: 0x1053,  // x^12+x^6+x^4+x+1
	13: 0x201b,  // x^13+x^4+x^3+x+1
	14: 0x4443,  // x^14+x^10+x^6+x+1
	15: 0x8003,  // x^15+x+1
	16: 0x1100b, // x^16+x^12+x^3+x+1
}

// Field is GF(2^m) with precomputed log and antilog tables. It is
// immutable after construction and safe for concurrent use.
type Field struct {
	m    int
	n    int // 2^m - 1, the multiplicative group order
	poly uint32
	exp  []uint16 // exp[i] = alpha^i, length 2n so indexing needs no mod
	log  []int    // log[x] = i such that alpha^i = x; log[0] unused
}

// NewField constructs GF(2^m) using the conventional primitive polynomial.
func NewField(m int) (*Field, error) {
	p, ok := defaultPrimitive[m]
	if !ok {
		return nil, fmt.Errorf("%w: m=%d", ErrBadM, m)
	}
	return NewFieldPoly(m, p)
}

// NewFieldPoly constructs GF(2^m) from an explicit primitive polynomial,
// given as a bit mask that must include the x^m term.
func NewFieldPoly(m int, poly uint32) (*Field, error) {
	if m < 2 || m > 16 {
		return nil, fmt.Errorf("%w: m=%d", ErrBadM, m)
	}
	if poly>>uint(m) != 1 {
		return nil, fmt.Errorf("%w: polynomial %#x lacks the x^%d term", ErrNotPrimitive, poly, m)
	}
	n := (1 << uint(m)) - 1
	f := &Field{
		m:    m,
		n:    n,
		poly: poly,
		exp:  make([]uint16, 2*n),
		log:  make([]int, n+1),
	}
	x := uint32(1)
	for i := 0; i < n; i++ {
		if x == 1 && i != 0 {
			// alpha's order divides i < n: not primitive.
			return nil, fmt.Errorf("%w: %#x (order %d < %d)", ErrNotPrimitive, poly, i, n)
		}
		f.exp[i] = uint16(x)
		f.log[x] = i
		x <<= 1
		if x>>uint(m) == 1 {
			x ^= poly
		}
	}
	if x != 1 {
		return nil, fmt.Errorf("%w: %#x (alpha^%d != 1)", ErrNotPrimitive, poly, n)
	}
	copy(f.exp[n:], f.exp[:n])
	return f, nil
}

// M returns the field degree m.
func (f *Field) M() int { return f.m }

// Order returns 2^m - 1, the order of the multiplicative group.
func (f *Field) Order() int { return f.n }

// Poly returns the primitive polynomial mask used to build the field.
func (f *Field) Poly() uint32 { return f.poly }

// Alpha returns alpha^i for any integer i >= 0.
func (f *Field) Alpha(i int) uint16 { return f.exp[i%f.n] }

// Log returns the discrete log of x (x != 0).
func (f *Field) Log(x uint16) (int, error) {
	if x == 0 || int(x) > f.n {
		return 0, fmt.Errorf("gf2: log of %d undefined", x)
	}
	return f.log[x], nil
}

// Add returns a + b (XOR in characteristic 2).
func (f *Field) Add(a, b uint16) uint16 { return a ^ b }

// Mul returns a * b.
func (f *Field) Mul(a, b uint16) uint16 {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Div returns a / b, or an error if b == 0.
func (f *Field) Div(a, b uint16) (uint16, error) {
	if b == 0 {
		return 0, ErrDivByZero
	}
	if a == 0 {
		return 0, nil
	}
	return f.exp[f.log[a]-f.log[b]+f.n], nil
}

// Inv returns the multiplicative inverse of a, or an error if a == 0.
func (f *Field) Inv(a uint16) (uint16, error) {
	if a == 0 {
		return 0, ErrDivByZero
	}
	return f.exp[f.n-f.log[a]], nil
}

// Pow returns a^e for e >= 0 (0^0 == 1 by convention).
func (f *Field) Pow(a uint16, e int) uint16 {
	if e == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return f.exp[(f.log[a]*e)%f.n]
}

// MulTable returns the dense multiplication table of a fixed element:
// tbl[x] = a*x for every field element x in [0, 2^m). A constant-factor
// multiply becomes one bounds-checked load with no zero tests or log
// lookups — the primitive behind the multi-syndrome Horner steps and
// the Chien search in internal/bch. The table is freshly allocated and owned by the caller.
func (f *Field) MulTable(a uint16) []uint16 {
	tbl := make([]uint16, f.n+1)
	if a == 0 {
		return tbl
	}
	la := f.log[a]
	for x := 1; x <= f.n; x++ {
		tbl[x] = f.exp[la+f.log[x]]
	}
	return tbl
}

// Eval evaluates the polynomial p (coefficients over GF(2^m), p[i] is the
// coefficient of x^i) at the point x, using Horner's rule.
func (f *Field) Eval(p []uint16, x uint16) uint16 {
	var acc uint16
	for i := len(p) - 1; i >= 0; i-- {
		acc = f.Mul(acc, x) ^ p[i]
	}
	return acc
}
