package ecc

import (
	"fmt"
	"math/bits"

	"repro/internal/line"
)

// Mode identifies which code currently protects a line (the ECC-mode bit
// of paper Section III-B).
type Mode int

// Modes. The stored encoding is a single logical bit replicated four ways
// (0000 = weak, 1111 = strong) for fault tolerance.
const (
	ModeWeak Mode = iota + 1
	ModeStrong
)

// String renders the mode for logs and reports.
func (m Mode) String() string {
	switch m {
	case ModeWeak:
		return "weak"
	case ModeStrong:
		return "strong"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Layout constants of Fig. 6: a (72,64)-provisioned memory gives 64 spare
// bits per 64-byte line; 4 carry the replicated ECC-mode flag and the
// remaining 60 hold whichever code protects the line.
const (
	// ModeBits is the number of replicas of the ECC-mode flag.
	ModeBits = 4
	// SpareBits is the total per-line ECC storage of a (72,64) memory.
	SpareBits = 64
	// CodeBits is the width available to the active code.
	CodeBits = SpareBits - ModeBits
)

// DecodeEvent describes how a morphable decode resolved, for accounting.
type DecodeEvent struct {
	// Mode is the mode the line was determined to be in.
	Mode Mode
	// ModeBitErrors is the number of flipped mode-bit replicas.
	ModeBitErrors int
	// TriedBoth is set when the replicas tied 2-2 and both decoders ran.
	TriedBoth bool
	// Result is the outcome of the winning decoder.
	Result Result
}

// Morphable packs a weak and a strong codec into the Fig. 6 line layout
// and resolves the stored mode on decode: majority vote over the four
// replicas, falling back to trying both decoders on a 2-2 tie (paper
// Section III-D). It is immutable and safe for concurrent use.
type Morphable struct {
	weak   Codec
	strong Codec
	// weakScreen is the weak codec's fast screen when it offers one
	// (resolved once at construction so the sweep hot loop avoids the
	// per-line type assertion), nil otherwise.
	weakScreen Screener
}

// NewMorphable builds the morphable layout over the given codecs. Both
// must fit in the 60 code bits.
func NewMorphable(weak, strong Codec) (*Morphable, error) {
	for _, c := range []Codec{weak, strong} {
		if c.StorageBits() > CodeBits {
			return nil, fmt.Errorf("%w: %s needs %d bits > %d",
				ErrTooWide, c.Name(), c.StorageBits(), CodeBits)
		}
	}
	m := &Morphable{weak: weak, strong: strong}
	m.weakScreen, _ = weak.(Screener)
	return m, nil
}

// NewDefaultMorphable builds the paper's configuration: line-granularity
// SECDED as the weak code and ECC-6 as the strong code.
func NewDefaultMorphable() (*Morphable, error) {
	weak, err := NewLineSECDED()
	if err != nil {
		return nil, err
	}
	strong, err := NewBCH(6, false)
	if err != nil {
		return nil, err
	}
	return NewMorphable(weak, strong)
}

// Weak returns the weak codec.
func (m *Morphable) Weak() Codec { return m.weak }

// Strong returns the strong codec.
func (m *Morphable) Strong() Codec { return m.strong }

// Encode produces the full 64-bit spare field for a line in the given
// mode: mode replicas in bits [0,4), code bits from bit 4 up.
func (m *Morphable) Encode(data line.Line, mode Mode) uint64 {
	c := m.weak
	var modeField uint64
	if mode == ModeStrong {
		c = m.strong
		modeField = (1 << ModeBits) - 1
	}
	return modeField | c.Encode(data)<<ModeBits
}

// ScreenWeakClean reports whether a stored line is a pristine weak-mode
// codeword: all four mode replicas zero and the weak code's screen
// clean — exactly the condition under which Decode resolves to
// {Mode: ModeWeak, ModeBitErrors: 0, Result: zero}. It returns false
// (conservatively forcing the full Decode) when the weak codec offers
// no Screener. The upgrade sweep runs this screen first and drops to
// the scalar decoder only for the rare lines that fail it.
func (m *Morphable) ScreenWeakClean(data line.Line, spare uint64) bool {
	if m.weakScreen == nil || int(spare)&((1<<ModeBits)-1) != 0 {
		return false
	}
	return m.weakScreen.ScreenClean(data, spare>>ModeBits)
}

// Decode resolves the mode of a stored line and decodes it with the
// appropriate codec. The returned line is the corrected data; the event
// records how the mode was resolved.
func (m *Morphable) Decode(data line.Line, spare uint64) (line.Line, DecodeEvent) {
	replicas := int(spare) & ((1 << ModeBits) - 1)
	ones := bits.OnesCount(uint(replicas))
	check := spare >> ModeBits

	switch {
	case ones > ModeBits/2:
		fixed, res := m.strong.Decode(data, check)
		return fixed, DecodeEvent{
			Mode:          ModeStrong,
			ModeBitErrors: ModeBits - ones,
			Result:        res,
		}
	case ones < ModeBits/2:
		fixed, res := m.weak.Decode(data, check)
		return fixed, DecodeEvent{
			Mode:          ModeWeak,
			ModeBitErrors: ones,
			Result:        res,
		}
	default:
		// 2-2 tie: try the strong decoder first (ties can only arise
		// from retention errors, which only accumulate in strong mode),
		// then the weak one.
		if fixed, res := m.strong.Decode(data, check); !res.Uncorrectable {
			return fixed, DecodeEvent{
				Mode:          ModeStrong,
				ModeBitErrors: 2,
				TriedBoth:     true,
				Result:        res,
			}
		}
		fixed, res := m.weak.Decode(data, check)
		return fixed, DecodeEvent{
			Mode:          ModeWeak,
			ModeBitErrors: 2,
			TriedBoth:     true,
			Result:        res,
		}
	}
}
