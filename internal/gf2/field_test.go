package gf2

import (
	"testing"
	"testing/quick"
)

func mustField(t *testing.T, m int) *Field {
	t.Helper()
	f, err := NewField(m)
	if err != nil {
		t.Fatalf("NewField(%d): %v", m, err)
	}
	return f
}

func TestNewFieldAllM(t *testing.T) {
	for m := 2; m <= 16; m++ {
		f := mustField(t, m)
		if f.Order() != (1<<m)-1 {
			t.Errorf("m=%d: order %d, want %d", m, f.Order(), (1<<m)-1)
		}
	}
}

func TestNewFieldRejectsBadM(t *testing.T) {
	for _, m := range []int{-1, 0, 1, 17, 99} {
		if _, err := NewField(m); err == nil {
			t.Errorf("NewField(%d): want error", m)
		}
	}
}

func TestNewFieldPolyRejectsNonPrimitive(t *testing.T) {
	// x^4+1 = (x+1)^4 is not even irreducible.
	if _, err := NewFieldPoly(4, 0x11); err == nil {
		t.Error("NewFieldPoly(4, x^4+1): want error")
	}
	// x^4+x^3+x^2+x+1 is irreducible but not primitive (order 5).
	if _, err := NewFieldPoly(4, 0x1f); err == nil {
		t.Error("NewFieldPoly(4, x^4+x^3+x^2+x+1): want error")
	}
	// Missing the x^m term.
	if _, err := NewFieldPoly(4, 0x7); err == nil {
		t.Error("NewFieldPoly(4, x^2+x+1): want error")
	}
}

func TestMulDivInverse(t *testing.T) {
	f := mustField(t, 8)
	n := f.Order()
	for a := 1; a <= n; a++ {
		inv, err := f.Div(1, uint16(a))
		if err != nil {
			t.Fatalf("Div(1, %d): %v", a, err)
		}
		if got := f.Mul(uint16(a), inv); got != 1 {
			t.Fatalf("a * a^-1 = %d for a=%d, want 1", got, a)
		}
	}
	if _, err := f.Div(5, 0); err == nil {
		t.Error("Div(_,0): want error")
	}
	q, err := f.Div(0, 7)
	if err != nil || q != 0 {
		t.Errorf("Div(0,7) = %d,%v; want 0,nil", q, err)
	}
}

// Field axioms checked exhaustively on a small field and by sampling on a
// larger one.
func TestFieldAxiomsExhaustiveGF16(t *testing.T) {
	f := mustField(t, 4)
	n := uint16(f.Order())
	for a := uint16(0); a <= n; a++ {
		for b := uint16(0); b <= n; b++ {
			if f.Mul(a, b) != f.Mul(b, a) {
				t.Fatalf("commutativity fails at %d,%d", a, b)
			}
			for c := uint16(0); c <= n; c++ {
				if f.Mul(a, f.Mul(b, c)) != f.Mul(f.Mul(a, b), c) {
					t.Fatalf("associativity fails at %d,%d,%d", a, b, c)
				}
				if f.Mul(a, b^c) != f.Mul(a, b)^f.Mul(a, c) {
					t.Fatalf("distributivity fails at %d,%d,%d", a, b, c)
				}
			}
		}
	}
}

func TestFieldAxiomsQuickGF1024(t *testing.T) {
	f := mustField(t, 10)
	n := uint16(f.Order())
	prop := func(a, b, c uint16) bool {
		a, b, c = a%(n+1), b%(n+1), c%(n+1)
		return f.Mul(a, f.Mul(b, c)) == f.Mul(f.Mul(a, b), c) &&
			f.Mul(a, b^c) == f.Mul(a, b)^f.Mul(a, c) &&
			f.Mul(a, 1) == a
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAlphaOrder(t *testing.T) {
	f := mustField(t, 10)
	if f.Alpha(f.Order()) != 1 {
		t.Error("alpha^n != 1")
	}
	seen := make(map[uint16]bool)
	for i := 0; i < f.Order(); i++ {
		v := f.Alpha(i)
		if seen[v] {
			t.Fatalf("alpha^%d = %d repeats", i, v)
		}
		seen[v] = true
	}
}

func TestMulTableMatchesMul(t *testing.T) {
	for _, m := range []int{4, 8, 10} {
		f, err := NewField(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []uint16{0, 1, 2, f.Alpha(7), f.Alpha(f.Order() - 1), uint16(f.Order())} {
			tbl := f.MulTable(a)
			if len(tbl) != f.Order()+1 {
				t.Fatalf("m=%d a=%d: table length %d, want %d", m, a, len(tbl), f.Order()+1)
			}
			for x := 0; x <= f.Order(); x++ {
				if got, want := tbl[x], f.Mul(a, uint16(x)); got != want {
					t.Fatalf("m=%d: MulTable(%d)[%d] = %d, want %d", m, a, x, got, want)
				}
			}
		}
	}
}

func TestEvalHorner(t *testing.T) {
	f := mustField(t, 4)
	// p(x) = 3 + 5x + x^2 over GF(16), evaluate at a few points against a
	// naive power-sum computation.
	p := []uint16{3, 5, 1}
	for x := uint16(0); x <= uint16(f.Order()); x++ {
		want := uint16(3) ^ f.Mul(5, x) ^ f.Mul(x, x)
		if got := f.Eval(p, x); got != want {
			t.Fatalf("Eval at %d = %d, want %d", x, got, want)
		}
	}
}

func BenchmarkMulGF1024(b *testing.B) {
	f, err := NewField(10)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = f.Mul(uint16(i%1023+1), 777)
	}
}
