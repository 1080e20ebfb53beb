package ecc

import (
	"math/rand"
	"testing"

	"repro/internal/line"
)

func randLine(rng *rand.Rand) line.Line {
	var ln line.Line
	for w := range ln {
		ln[w] = rng.Uint64()
	}
	return ln
}

func TestByNameAll(t *testing.T) {
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if c.Name() != name && name != "ecc1x" && c.Name() != name[:len(name)-1] {
			// Extended BCH codecs report the base name.
			t.Errorf("ByName(%q).Name() = %q", name, c.Name())
		}
	}
	for _, bad := range []string{"", "ecc", "ecc0", "ecc7", "ecc9", "eccx", "hamming", "ecc6xy"} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q): want error", bad)
		}
	}
}

func TestStorageBudgets(t *testing.T) {
	// The storage claims of paper Section III-D.
	tests := []struct {
		name string
		want int
	}{
		{"none", 0},
		{"secded-word", 64},
		{"secded-line", 11},
		{"ecc6", 60},
		{"ecc6x", 61},
		{"ecc1", 10},
	}
	for _, tt := range tests {
		c, err := ByName(tt.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.StorageBits(); got != tt.want {
			t.Errorf("%s: StorageBits = %d, want %d", tt.name, got, tt.want)
		}
	}
}

func TestRoundTripAllCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"none", "secded-word", "secded-line", "ecc1", "ecc2", "ecc6", "ecc6x"} {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 5; trial++ {
			data := randLine(rng)
			chk := c.Encode(data)
			got, res := c.Decode(data, chk)
			if res.Uncorrectable || got != data || res.CorrectedBits != 0 {
				t.Errorf("%s: clean round trip failed (%+v)", name, res)
			}
		}
	}
}

func TestCodecsCorrectAtCapability(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, name := range []string{"secded-line", "ecc1", "ecc3", "ecc6"} {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tcap := c.CorrectBits()
		for trial := 0; trial < 10; trial++ {
			data := randLine(rng)
			chk := c.Encode(data)
			bad := data
			seen := map[int]bool{}
			for len(seen) < tcap {
				p := rng.Intn(line.Bits)
				if !seen[p] {
					seen[p] = true
					bad = bad.FlipBit(p)
				}
			}
			got, res := c.Decode(bad, chk)
			if res.Uncorrectable || got != data {
				t.Errorf("%s: failed to correct %d errors", name, tcap)
			}
		}
	}
}

func TestWordSECDEDCorrectsOnePerWord(t *testing.T) {
	c, err := NewWordSECDED()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	data := randLine(rng)
	chk := c.Encode(data)
	// One error in every one of the eight words: all corrected.
	bad := data
	for w := 0; w < 8; w++ {
		bad = bad.FlipBit(w*64 + rng.Intn(64))
	}
	got, res := c.Decode(bad, chk)
	if res.Uncorrectable || got != data || res.CorrectedBits != 8 {
		t.Errorf("word secded 8x1 errors: res=%+v", res)
	}
	// Two errors in the same word: detected.
	bad2 := data.FlipBit(3).FlipBit(17)
	_, res = c.Decode(bad2, chk)
	if !res.Uncorrectable {
		t.Error("word secded same-word double error not detected")
	}
}

func TestMorphableModeResolution(t *testing.T) {
	m, err := NewDefaultMorphable()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	data := randLine(rng)

	for _, mode := range []Mode{ModeWeak, ModeStrong} {
		spare := m.Encode(data, mode)
		got, ev := m.Decode(data, spare)
		if got != data || ev.Mode != mode || ev.ModeBitErrors != 0 || ev.TriedBoth {
			t.Errorf("mode %v: event %+v", mode, ev)
		}
	}
}

func TestMorphableModeBitSingleFlip(t *testing.T) {
	m, err := NewDefaultMorphable()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	data := randLine(rng)
	for _, mode := range []Mode{ModeWeak, ModeStrong} {
		for b := 0; b < ModeBits; b++ {
			spare := m.Encode(data, mode) ^ (1 << b)
			got, ev := m.Decode(data, spare)
			if got != data || ev.Mode != mode {
				t.Errorf("mode %v flip bit %d: resolved %v", mode, b, ev.Mode)
			}
			if ev.ModeBitErrors != 1 || ev.TriedBoth {
				t.Errorf("mode %v flip bit %d: event %+v", mode, b, ev)
			}
		}
	}
}

func TestMorphableModeBitTieTryBoth(t *testing.T) {
	m, err := NewDefaultMorphable()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		data := randLine(rng)
		// Strong-mode line with two mode replicas flipped to weak, plus
		// up to 6 data errors: the tie must resolve via trial decode to
		// strong and still correct everything.
		spare := m.Encode(data, ModeStrong) ^ 0b0011
		bad := data
		for e := 0; e < 1+rng.Intn(6); e++ {
			bad = bad.FlipBit(rng.Intn(line.Bits))
		}
		got, ev := m.Decode(bad, spare)
		if !ev.TriedBoth || ev.Mode != ModeStrong {
			t.Fatalf("tie not resolved by trial: %+v", ev)
		}
		if got != data {
			t.Fatal("tie resolution corrupted data")
		}
	}
}

func TestMorphableRejectsWideCodec(t *testing.T) {
	wide, err := NewWordSECDED() // 64 bits > 60 available
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := NewLineSECDED()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMorphable(narrow, wide); err == nil {
		t.Error("NewMorphable with 64-bit codec: want error")
	}
}

func TestDefaultCosts(t *testing.T) {
	secded, err := NewLineSECDED()
	if err != nil {
		t.Fatal(err)
	}
	if got := DefaultCost(secded).DecodeCycles; got != 2 {
		t.Errorf("SECDED decode cycles = %d, want 2", got)
	}
	ecc6, err := NewBCH(6, false)
	if err != nil {
		t.Fatal(err)
	}
	c6 := DefaultCost(ecc6)
	if c6.DecodeCycles != 30 {
		t.Errorf("ECC-6 decode cycles = %d, want 30", c6.DecodeCycles)
	}
	if c6.AreaGates < 100_000 || c6.AreaGates > 200_000 {
		t.Errorf("ECC-6 area = %d, want within paper's 100K-200K", c6.AreaGates)
	}
	if c6.DecodeEnergyPJ != 40 {
		t.Errorf("ECC-6 decode energy = %v pJ, want 40", c6.DecodeEnergyPJ)
	}
	if got := DefaultCost(None{}); got != (CostModel{}) {
		t.Errorf("none cost = %+v, want zero", got)
	}
	if SECDEDCost() != DefaultCost(secded) || BCHCost(6) != c6 {
		t.Error("SECDEDCost/BCHCost differ from DefaultCost of the built codecs")
	}
}

func TestModeString(t *testing.T) {
	if ModeWeak.String() != "weak" || ModeStrong.String() != "strong" {
		t.Error("Mode.String mismatch")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string")
	}
}

// TestMorphableArbitraryLevels exercises the paper's closing remark: the
// scheme morphs between arbitrary ECC levels, not just SECDED/ECC-6.
func TestMorphableArbitraryLevels(t *testing.T) {
	weak, err := NewBCH(2, false) // 20 bits
	if err != nil {
		t.Fatal(err)
	}
	strong, err := NewBCH(5, true) // 51 bits
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMorphable(weak, strong)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		data := randLine(rng)
		// Weak mode corrects 2 errors.
		spare := m.Encode(data, ModeWeak)
		bad := data.FlipBit(rng.Intn(line.Bits)).FlipBit(256 + rng.Intn(128))
		got, ev := m.Decode(bad, spare)
		if got != data || ev.Mode != ModeWeak {
			t.Fatalf("weak ecc2 morph failed: %+v", ev)
		}
		// Strong mode corrects 5.
		spare = m.Encode(data, ModeStrong)
		bad = data
		for e := 0; e < 5; e++ {
			bad = bad.FlipBit(e*97 + trial)
		}
		got, ev = m.Decode(bad, spare)
		if got != data || ev.Mode != ModeStrong {
			t.Fatalf("strong ecc5x morph failed: %+v", ev)
		}
	}
}

func TestCodecCapabilityMetadata(t *testing.T) {
	// Correction/detection metadata for every registry codec: detection
	// is never below correction, storage fits the morphable budget for
	// everything but word SECDED.
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.DetectBits() < c.CorrectBits() {
			t.Errorf("%s: detect %d < correct %d", name, c.DetectBits(), c.CorrectBits())
		}
	}
	none := None{}
	if none.CorrectBits() != 0 || none.DetectBits() != 0 {
		t.Error("none capability")
	}
	w, err := NewWordSECDED()
	if err != nil {
		t.Fatal(err)
	}
	if w.CorrectBits() != 1 || w.DetectBits() != 2 {
		t.Error("word secded capability")
	}
	l, err := NewLineSECDED()
	if err != nil {
		t.Fatal(err)
	}
	if l.DetectBits() != 2 {
		t.Error("line secded detection")
	}
	m, err := NewDefaultMorphable()
	if err != nil {
		t.Fatal(err)
	}
	if m.Weak().Name() != "secded-line" || m.Strong().Name() != "ecc6" {
		t.Errorf("morphable codecs: weak=%s strong=%s", m.Weak().Name(), m.Strong().Name())
	}
}

// TestScreenersMatchDecode: for every codec that offers the fast screen,
// ScreenClean must be true exactly when Decode returns a zero Result —
// on clean, singly-, doubly- and multiply-corrupted lines, with junk in
// the check bits above the stored width.
func TestScreenersMatchDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s, ok := c.(Screener)
		if !ok {
			t.Fatalf("%s: no Screener implementation", name)
		}
		for trial := 0; trial < 60; trial++ {
			data := randLine(rng)
			check := c.Encode(data)
			if w := c.StorageBits(); w < 64 {
				check |= rng.Uint64() << w
			}
			for _, flips := range []int{0, 1, 2, 5} {
				cd := data
				for f := 0; f < flips; f++ {
					cd = cd.FlipBit(rng.Intn(line.Bits))
				}
				out, res := c.Decode(cd, check)
				wantClean := res.CorrectedBits == 0 && !res.Uncorrectable && out == cd
				if got := s.ScreenClean(cd, check); got != wantClean {
					t.Fatalf("%s flips=%d: ScreenClean=%v, Decode %+v", name, flips, got, res)
				}
			}
		}
	}
}

// TestScreenWeakClean pins the morphable weak screen: true only for
// pristine weak-mode lines, false on mode-bit damage, data damage,
// check damage or strong mode.
func TestScreenWeakClean(t *testing.T) {
	m, err := NewDefaultMorphable()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 100; trial++ {
		data := randLine(rng)
		weakSpare := m.Encode(data, ModeWeak)
		if !m.ScreenWeakClean(data, weakSpare) {
			t.Fatal("pristine weak line failed screen")
		}
		if m.ScreenWeakClean(data, m.Encode(data, ModeStrong)) {
			t.Fatal("strong line passed weak screen")
		}
		if m.ScreenWeakClean(data, weakSpare^1) {
			t.Fatal("mode-bit flip passed screen")
		}
		if m.ScreenWeakClean(data.FlipBit(rng.Intn(line.Bits)), weakSpare) {
			t.Fatal("data flip passed screen")
		}
		if m.ScreenWeakClean(data, weakSpare^(1<<(ModeBits+rng.Intn(m.Weak().StorageBits())))) {
			t.Fatal("check flip passed screen")
		}
	}
}

// TestCodecZeroAllocs guards the codec paths of strong reads and
// upgrade sweeps: every Screener's ScreenClean and the morphable weak
// screen allocate nothing.
func TestCodecZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	data := randLine(rng)
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s, ok := c.(Screener)
		if !ok {
			t.Fatalf("%s: no Screener implementation", name)
		}
		check := c.Encode(data)
		if n := testing.AllocsPerRun(100, func() { _ = s.ScreenClean(data, check) }); n != 0 {
			t.Errorf("%s ScreenClean allocates %v per run, want 0", name, n)
		}
	}
	m, err := NewDefaultMorphable()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		data := line.Line{1, 2, 3}
		_ = m.ScreenWeakClean(data, m.Encode(data, ModeWeak))
	}); n != 0 {
		t.Errorf("ScreenWeakClean+Encode allocate %v per run, want 0", n)
	}
}
