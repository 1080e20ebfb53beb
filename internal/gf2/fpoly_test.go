package gf2

import (
	"math/rand"
	"testing"
)

func randFPoly(rng *rand.Rand, f *Field, maxDeg int) FPoly {
	p := make(FPoly, rng.Intn(maxDeg+1)+1)
	for i := range p {
		p[i] = uint16(rng.Intn(f.Order() + 1))
	}
	return p
}

func TestFPolyBasics(t *testing.T) {
	p := NewFPoly(3, 0, 1) // x^2 + 3
	if p.Degree() != 2 || p[0] != 3 || p[1] != 0 {
		t.Errorf("basics: %v", p)
	}
	if (FPoly{}).Degree() != -1 || (FPoly{0, 0}).Degree() != -1 {
		t.Error("zero degree")
	}
	if !NewFPoly(1, 2).Equal(NewFPoly(1, 2, 0)) {
		t.Error("Equal should ignore trailing zeros")
	}
	if NewFPoly(1).Equal(NewFPoly(2)) {
		t.Error("Equal false negative")
	}
}

func TestFPolyArithmetic(t *testing.T) {
	f := mustField(t, 4)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a := randFPoly(rng, f, 6)
		b := randFPoly(rng, f, 6)
		c := randFPoly(rng, f, 6)
		// Commutativity and distributivity at a random point: checking
		// polynomial identities by evaluation (a field has no zero
		// divisors, so equality at enough points means equality).
		x := uint16(rng.Intn(f.Order() + 1))
		ab := a.Mul(f, b)
		if !ab.Equal(b.Mul(f, a)) {
			t.Fatal("Mul not commutative")
		}
		lhs := a.Mul(f, b.Add(c)).Eval(f, x)
		rhs := ab.Eval(f, x) ^ a.Mul(f, c).Eval(f, x)
		if lhs != rhs {
			t.Fatal("distributivity fails")
		}
		// Eval is a homomorphism.
		if ab.Eval(f, x) != f.Mul(a.Eval(f, x), b.Eval(f, x)) {
			t.Fatal("Eval not multiplicative")
		}
		if a.Add(b).Eval(f, x) != a.Eval(f, x)^b.Eval(f, x) {
			t.Fatal("Eval not additive")
		}
	}
}

func TestFPolyString(t *testing.T) {
	if got := (FPoly{}).String(); got != "0" {
		t.Errorf("zero string = %q", got)
	}
	if got := NewFPoly(3, 1, 1).String(); got != "x^2 + x + 3" {
		t.Errorf("string = %q", got)
	}
	if got := NewFPoly(0, 2).String(); got != "2·x" {
		t.Errorf("string = %q", got)
	}
}
