package gf2

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randPoly(rng *rand.Rand, maxDeg int) Poly2 {
	var p Poly2
	d := rng.Intn(maxDeg + 1)
	for i := 0; i <= d; i++ {
		if rng.Intn(2) == 1 {
			p = p.SetCoeff(i, 1)
		}
	}
	return p
}

func TestPolyDegree(t *testing.T) {
	tests := []struct {
		p    Poly2
		want int
	}{
		{nil, -1},
		{Poly2{0}, -1},
		{NewPoly2(0), 0},
		{NewPoly2(5), 5},
		{NewPoly2(0, 64), 64},
		{NewPoly2(127, 3), 127},
	}
	for _, tt := range tests {
		if got := tt.p.Degree(); got != tt.want {
			t.Errorf("Degree(%v) = %d, want %d", tt.p, got, tt.want)
		}
	}
}

func TestPolyString(t *testing.T) {
	tests := []struct {
		p    Poly2
		want string
	}{
		{nil, "0"},
		{NewPoly2(0), "1"},
		{NewPoly2(1), "x"},
		{NewPoly2(10, 3, 0), "x^10 + x^3 + 1"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestPolyMulKnown(t *testing.T) {
	// (x+1)(x+1) = x^2+1 over GF(2).
	a := NewPoly2(1, 0)
	if got := a.Mul(a); !got.Equal(NewPoly2(2, 0)) {
		t.Errorf("(x+1)^2 = %v, want x^2+1", got)
	}
	// (x^2+x+1)(x+1) = x^3+1.
	b := NewPoly2(2, 1, 0)
	if got := b.Mul(NewPoly2(1, 0)); !got.Equal(NewPoly2(3, 0)) {
		t.Errorf("got %v, want x^3+1", got)
	}
}

func TestDivModKnown(t *testing.T) {
	// x^3+1 divided by x+1 is x^2+x+1 rem 0.
	q, r, err := NewPoly2(3, 0).DivMod(NewPoly2(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !q.Equal(NewPoly2(2, 1, 0)) || r.Degree() != -1 {
		t.Errorf("got q=%v r=%v", q, r)
	}
	// Division by zero errors.
	if _, _, err := NewPoly2(3).DivMod(nil); err == nil {
		t.Error("DivMod by zero: want error")
	}
}

// Property: a = q*b + r with deg(r) < deg(b).
func TestDivModProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := randPoly(rng, 200)
		b := randPoly(rng, 80)
		if b.Degree() < 0 {
			continue
		}
		q, r, err := a.DivMod(b)
		if err != nil {
			t.Fatal(err)
		}
		if r.Degree() >= b.Degree() {
			t.Fatalf("deg(r)=%d >= deg(b)=%d", r.Degree(), b.Degree())
		}
		recon := q.Mul(b).Add(r)
		if q.Degree() < 0 {
			recon = r
		}
		if !recon.Equal(a) {
			t.Fatalf("q*b+r != a\n a=%v\n q=%v\n b=%v\n r=%v", a, q, b, r)
		}
	}
}

// Property: multiplication is commutative and distributes over addition.
func TestMulProperties(t *testing.T) {
	prop := func(sa, sb, sc uint64) bool {
		a, b, c := Poly2{sa}, Poly2{sb}, Poly2{sc}
		if !a.Mul(b).Equal(b.Mul(a)) {
			return false
		}
		return a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c)))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestShift(t *testing.T) {
	p := NewPoly2(5, 0)
	if got := p.Shift(70); !got.Equal(NewPoly2(75, 70)) {
		t.Errorf("Shift(70) = %v", got)
	}
	if got := (Poly2)(nil).Shift(3); got.Degree() != -1 {
		t.Errorf("Shift of zero poly = %v", got)
	}
}

func TestGCDAndLCM(t *testing.T) {
	// gcd(x^3+1, x^2+1): x^3+1=(x+1)(x^2+x+1), x^2+1=(x+1)^2 -> gcd x+1.
	g := GCD2(NewPoly2(3, 0), NewPoly2(2, 0))
	if !g.Equal(NewPoly2(1, 0)) {
		t.Errorf("GCD = %v, want x+1", g)
	}
	// lcm(x+1, x^2+x+1) = x^3+1.
	l := LCM2(NewPoly2(1, 0), NewPoly2(2, 1, 0))
	if !l.Equal(NewPoly2(3, 0)) {
		t.Errorf("LCM = %v, want x^3+1", l)
	}
	// LCM of coprime polys is their product.
	a, b := NewPoly2(4, 1, 0), NewPoly2(3, 1, 0)
	if g := GCD2(a, b); g.Degree() == 0 {
		if got := LCM2(a, b); !got.Equal(a.Mul(b)) {
			t.Errorf("LCM of coprime = %v, want product", got)
		}
	}
}

func TestMinimalPolyGF16(t *testing.T) {
	f := mustField(t, 4)
	// Known minimal polynomials for GF(16) with x^4+x+1 (Lin & Costello
	// Table 2.9): m1 = x^4+x+1, m3 = x^4+x^3+x^2+x+1, m5 = x^2+x+1,
	// m7 = x^4+x^3+1.
	tests := []struct {
		i    int
		want Poly2
	}{
		{1, NewPoly2(4, 1, 0)},
		{3, NewPoly2(4, 3, 2, 1, 0)},
		{5, NewPoly2(2, 1, 0)},
		{7, NewPoly2(4, 3, 0)},
	}
	for _, tt := range tests {
		if got := f.MinimalPoly(tt.i); !got.Equal(tt.want) {
			t.Errorf("MinimalPoly(%d) = %v, want %v", tt.i, got, tt.want)
		}
	}
}

// Property: the minimal polynomial of alpha^i has alpha^i as a root when
// lifted to GF(2^m), and divides x^n + 1.
func TestMinimalPolyRootAndDivides(t *testing.T) {
	f := mustField(t, 10)
	xn1 := NewPoly2(f.Order(), 0)
	for _, i := range []int{1, 3, 5, 7, 9, 11, 33, 341} {
		mp := f.MinimalPoly(i)
		// Evaluate over GF(2^m): coefficients are 0/1.
		coeffs := make([]uint16, mp.Degree()+1)
		for k := range coeffs {
			coeffs[k] = uint16(mp.Coeff(k))
		}
		if v := f.Eval(coeffs, f.Alpha(i)); v != 0 {
			t.Errorf("minpoly(%d) does not vanish at alpha^%d (got %d)", i, i, v)
		}
		if _, r, err := xn1.DivMod(mp); err != nil || r.Degree() != -1 {
			t.Errorf("minpoly(%d) does not divide x^n+1 (rem %v, err %v)", i, r, err)
		}
	}
}
