package line

import (
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitSetGet(t *testing.T) {
	var ln Line
	for _, i := range []int{0, 1, 63, 64, 100, 511} {
		ln = ln.FlipBit(i)
		if ln.Bit(i) != 1 {
			t.Fatalf("bit %d: want 1", i)
		}
	}
	if got := ln.PopCount(); got != 6 {
		t.Fatalf("PopCount = %d, want 6", got)
	}
	ln = ln.FlipBit(63)
	if ln.Bit(63) != 0 {
		t.Fatal("bit 63: want 0 after clear")
	}
	if got := ln.PopCount(); got != 5 {
		t.Fatalf("PopCount = %d, want 5", got)
	}
}

func TestFlipBit(t *testing.T) {
	var ln Line
	ln = ln.FlipBit(200)
	if ln.Bit(200) != 1 {
		t.Fatal("flip 0->1 failed")
	}
	ln = ln.FlipBit(200)
	if !ln.IsZero() {
		t.Fatal("flip 1->0 failed")
	}
}

func TestDiff(t *testing.T) {
	var a, b Line
	b = b.FlipBit(3).FlipBit(64).FlipBit(511)
	d := a.Diff(b)
	want := []int{3, 64, 511}
	if len(d) != len(want) {
		t.Fatalf("Diff len = %d, want %d", len(d), len(want))
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Diff[%d] = %d, want %d", i, d[i], want[i])
		}
	}
}

func TestHexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		var ln Line
		for w := range ln {
			ln[w] = rng.Uint64()
		}
		b, err := hex.DecodeString(ln.String())
		if err != nil || len(b) != Bytes {
			t.Fatalf("String() = %q: %d bytes, %v", ln.String(), len(b), err)
		}
		// Bytes and String lay the words out little-endian, word 0 first.
		var got Line
		for w := range got {
			got[w] = binary.LittleEndian.Uint64(b[w*8:])
		}
		if got != ln {
			t.Fatalf("round trip mismatch: %v != %v", got, ln)
		}
	}
}

// Property: XOR is self-inverse and PopCount(a XOR a) == 0.
func TestXORProperties(t *testing.T) {
	f := func(a, b Line) bool {
		if !a.XOR(a).IsZero() {
			return false
		}
		return a.XOR(b).XOR(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Diff(a,b) positions are exactly the set bits of a XOR b.
func TestDiffMatchesXOR(t *testing.T) {
	f := func(a, b Line) bool {
		d := a.Diff(b)
		x := a.XOR(b)
		if len(d) != x.PopCount() {
			return false
		}
		for _, p := range d {
			if x.Bit(p) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkPopCount(b *testing.B) {
	var ln Line
	for w := range ln {
		ln[w] = 0xdeadbeefcafebabe
	}
	for i := 0; i < b.N; i++ {
		_ = ln.PopCount()
	}
}
