package hamming

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCheckWidths(t *testing.T) {
	tests := []struct {
		dataBits, want int
	}{
		{64, 8},   // (72,64): the commodity DIMM code
		{512, 11}, // the MECC weak code (paper: "we would need 11 bits")
		{8, 5},
		{4, 4},
		{1, 3},
	}
	for _, tt := range tests {
		s, err := NewSECDED(tt.dataBits)
		if err != nil {
			t.Fatalf("NewSECDED(%d): %v", tt.dataBits, err)
		}
		if got := s.CheckBits(); got != tt.want {
			t.Errorf("CheckBits(%d data) = %d, want %d", tt.dataBits, got, tt.want)
		}
	}
}

func TestNewSECDEDRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -5, 5000} {
		if _, err := NewSECDED(n); err == nil {
			t.Errorf("NewSECDED(%d): want error", n)
		}
	}
}

func TestEncodeDecodeClean(t *testing.T) {
	s, err := NewSECDED(512)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		data := make([]uint64, 8)
		for i := range data {
			data[i] = rng.Uint64()
		}
		chk, err := s.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		cp := append([]uint64(nil), data...)
		res, err := s.Decode(cp, chk)
		if err != nil {
			t.Fatal(err)
		}
		if res.Uncorrectable || res.CorrectedBits != 0 {
			t.Fatalf("clean decode: %+v", res)
		}
	}
}

func TestCorrectsEverySingleDataBit(t *testing.T) {
	s, err := NewSECDED(512)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	data := make([]uint64, 8)
	for i := range data {
		data[i] = rng.Uint64()
	}
	chk, err := s.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < 512; pos++ {
		cp := append([]uint64(nil), data...)
		flipBit(cp, pos)
		res, err := s.Decode(cp, chk)
		if err != nil {
			t.Fatal(err)
		}
		if res.Uncorrectable || res.CorrectedBits != 1 {
			t.Fatalf("pos %d: res=%+v", pos, res)
		}
		for w := range data {
			if cp[w] != data[w] {
				t.Fatalf("pos %d: data word %d not repaired", pos, w)
			}
		}
	}
}

func TestCorrectsEverySingleCheckBit(t *testing.T) {
	s, err := NewSECDED(512)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]uint64, 8)
	data[0] = 0xfeedface
	chk, err := s.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < s.CheckBits(); b++ {
		cp := append([]uint64(nil), data...)
		res, err := s.Decode(cp, chk^(1<<b))
		if err != nil {
			t.Fatal(err)
		}
		if res.Uncorrectable || res.CorrectedBits != 1 {
			t.Fatalf("check bit %d: res=%+v", b, res)
		}
		for w := range data {
			if cp[w] != data[w] {
				t.Fatalf("check bit %d corrupted data", b)
			}
		}
	}
}

func TestDetectsDoubleErrors(t *testing.T) {
	s, err := NewSECDED(512)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	data := make([]uint64, 8)
	for i := range data {
		data[i] = rng.Uint64()
	}
	chk, err := s.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 300; trial++ {
		a := rng.Intn(512)
		b := rng.Intn(512)
		if a == b {
			continue
		}
		cp := append([]uint64(nil), data...)
		flipBit(cp, a)
		flipBit(cp, b)
		res, err := s.Decode(cp, chk)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Uncorrectable {
			t.Fatalf("double error (%d,%d) not detected: %+v", a, b, res)
		}
	}
	// Mixed data+check double errors are detected too.
	for trial := 0; trial < 100; trial++ {
		cp := append([]uint64(nil), data...)
		flipBit(cp, rng.Intn(512))
		badChk := chk ^ (1 << rng.Intn(s.CheckBits()))
		res, err := s.Decode(cp, badChk)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Uncorrectable {
			t.Fatal("data+check double error not detected")
		}
	}
}

func TestDecodeInputValidation(t *testing.T) {
	s, err := NewSECDED(512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Encode(make([]uint64, 3)); err == nil {
		t.Error("Encode(short): want error")
	}
	if _, err := s.Decode(make([]uint64, 3), 0); err == nil {
		t.Error("Decode(short): want error")
	}
}

func TestWord72RoundTrip(t *testing.T) {
	w, err := NewWord72()
	if err != nil {
		t.Fatal(err)
	}
	prop := func(data uint64) bool {
		chk := w.Encode(data)
		got, res := w.Decode(data, chk)
		return got == data && !res.Uncorrectable && res.CorrectedBits == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: Word72 corrects any single flipped data bit.
func TestWord72SingleBitProperty(t *testing.T) {
	w, err := NewWord72()
	if err != nil {
		t.Fatal(err)
	}
	prop := func(data uint64, pos uint8) bool {
		p := int(pos) % 64
		chk := w.Encode(data)
		got, res := w.Decode(data^(1<<p), chk)
		return got == data && res.CorrectedBits == 1 && !res.Uncorrectable
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: Word72 detects any double data-bit error.
func TestWord72DoubleBitProperty(t *testing.T) {
	w, err := NewWord72()
	if err != nil {
		t.Fatal(err)
	}
	prop := func(data uint64, p1, p2 uint8) bool {
		a, b := int(p1)%64, int(p2)%64
		if a == b {
			return true
		}
		chk := w.Encode(data)
		_, res := w.Decode(data^(1<<a)^(1<<b), chk)
		return res.Uncorrectable
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncode512(b *testing.B) {
	s, err := NewSECDED(512)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]uint64, 8)
	for i := range data {
		data[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: the word-parallel mask syndrome matches the bit-serial
// reference walk for every code size and random data.
func TestSyndromeWordParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dataBits := range []int{1, 7, 63, 64, 65, 100, 256, 511, 512, 1000, 4096} {
		s, err := NewSECDED(dataBits)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]uint64, s.wordsNeeded())
		for trial := 0; trial < 50; trial++ {
			for i := range data {
				data[i] = rng.Uint64()
			}
			fastSynd, fastOnes := s.syndromeOf(data)
			refSynd, refOnes := s.syndromeBitSerial(data)
			if fastSynd != refSynd || fastOnes != refOnes {
				t.Fatalf("dataBits=%d: word-parallel (synd=%#x ones=%d) != bit-serial (synd=%#x ones=%d)",
					dataBits, fastSynd, fastOnes, refSynd, refOnes)
			}
		}
	}
}

// Property: ScreenClean agrees with Decode's clean verdict for intact,
// single-error, and double-error words, junk above the check width
// included.
func TestScreenCleanMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dataBits := range []int{64, 512} {
		s, err := NewSECDED(dataBits)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]uint64, s.wordsNeeded())
		buf := make([]uint64, s.wordsNeeded())
		for trial := 0; trial < 200; trial++ {
			for i := range data {
				data[i] = rng.Uint64()
			}
			chk, err := s.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			// Junk above the stored width must be ignored.
			chk |= rng.Uint64() << uint(s.CheckBits())
			nflips := trial % 3
			for f := 0; f < nflips; f++ {
				flipBit(data, rng.Intn(dataBits))
			}
			copy(buf, data)
			res, err := s.Decode(buf, chk)
			if err != nil {
				t.Fatal(err)
			}
			clean := res == (Result{})
			if got := s.ScreenClean(data, chk); got != clean {
				t.Fatalf("dataBits=%d flips=%d: ScreenClean=%v, Decode clean=%v", dataBits, nflips, got, clean)
			}
		}
	}
	// Wrong input length screens as not clean.
	s, _ := NewSECDED(512)
	if s.ScreenClean(make([]uint64, 3), 0) {
		t.Fatal("short input screened clean")
	}
}

// The encode and screen kernels of the weak code are on the upgrade
// sweep's zero-allocation hot path. So is the length-mismatch guard of
// Encode and Decode: its error is built once, at construction.
func TestEncodeScreenZeroAllocs(t *testing.T) {
	s, err := NewSECDED(512)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]uint64, 8)
	for i := range data {
		data[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	chk, err := s.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := s.Encode(data); err != nil {
			t.Fatal(err)
		}
		if !s.ScreenClean(data, chk) {
			t.Fatal("clean word failed screen")
		}
	}); n != 0 {
		t.Fatalf("Encode+ScreenClean allocate %v times per run", n)
	}
	short := data[:3]
	if n := testing.AllocsPerRun(100, func() {
		if _, err := s.Encode(short); err == nil {
			t.Fatal("Encode(short) succeeded, want error")
		}
		if _, err := s.Decode(short, 0); err == nil {
			t.Fatal("Decode(short) succeeded, want error")
		}
	}); n != 0 {
		t.Fatalf("error path allocates %v times per run", n)
	}
}

// TestWrongLengthError pins the prebuilt length-mismatch error: it must
// wrap ErrBadInput for errors.Is. TestEncodeScreenZeroAllocs checks
// that firing the guard clause does not allocate.
func TestWrongLengthError(t *testing.T) {
	s, err := NewSECDED(512)
	if err != nil {
		t.Fatal(err)
	}
	short := make([]uint64, 3) // wants 8 words

	if _, err := s.Encode(short); !errors.Is(err, ErrBadInput) {
		t.Fatalf("Encode(short) error = %v, want ErrBadInput", err)
	}
	if _, err := s.Decode(short, 0); !errors.Is(err, ErrBadInput) {
		t.Fatalf("Decode(short) error = %v, want ErrBadInput", err)
	}
}

// syndromeBitSerial is the reference bit-serial syndrome walk, kept for
// the equivalence property test.
func (s *SECDED) syndromeBitSerial(data []uint64) (uint32, int) {
	var synd uint32
	ones := 0
	for i := 0; i < s.dataBits; i++ {
		if getBit(data, i) == 1 {
			synd ^= s.dataPos[i]
			ones++
		}
	}
	return synd, ones
}

// getBit reads bit i from a little-endian word vector.
func getBit(v []uint64, i int) uint64 { return (v[i>>6] >> (uint(i) & 63)) & 1 }
