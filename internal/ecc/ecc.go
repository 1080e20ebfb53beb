// Package ecc provides a uniform interface over the error-correcting codes
// used by the simulator (none, word-granularity SECDED, line-granularity
// SECDED, BCH ECC-1..8), the hardware cost model for their encoders and
// decoders (paper Section III-E), and the morphable line layout of Fig. 6
// that packs the ECC-mode bits and either code into the 64 spare bits of a
// (72,64)-provisioned memory line.
package ecc

import (
	"errors"
	"fmt"

	"repro/internal/bch"
	"repro/internal/hamming"
	"repro/internal/line"
)

// Errors returned by codec construction and lookup.
var (
	ErrUnknownCodec = errors.New("ecc: unknown codec name")
	ErrTooWide      = errors.New("ecc: codec does not fit the morphable layout")
)

// Result describes the outcome of a decode, shared across codecs. It is
// an alias of bch.Result so the zero-copy batch decode paths can hand
// bch result slices straight through; the hamming result type has the
// same shape and converts.
type Result = bch.Result

// Codec is a line-granularity error-correcting code: it protects one
// 64-byte cache line with at most 64 bits of stored check state.
// Implementations are immutable and safe for concurrent use.
type Codec interface {
	// Name is a short stable identifier (e.g. "secded-line", "ecc6").
	Name() string
	// CorrectBits is the guaranteed per-line correction capability t.
	CorrectBits() int
	// DetectBits is the guaranteed detection capability (>= CorrectBits).
	DetectBits() int
	// StorageBits is the stored check width per line.
	StorageBits() int
	// Encode computes the check word for a line.
	Encode(data line.Line) uint64
	// Decode verifies and repairs a line against its check word.
	Decode(data line.Line, check uint64) (line.Line, Result)
}

// BatchCodec is the optional bulk interface a Codec may implement to
// encode or decode many independent lines at once (internally fanned out
// over batch.Default()). Morphable.EncodeBatch probes for it and falls
// back to per-line calls otherwise.
type BatchCodec interface {
	Codec
	// EncodeBatch computes check words for each line: out[i] = Encode(data[i]).
	EncodeBatch(data []line.Line, out []uint64)
	// DecodeBatch decodes each (data[i], check[i]) pair into out[i],
	// results[i]. out may alias data.
	DecodeBatch(data []line.Line, check []uint64, out []line.Line, results []Result)
}

// Screener is the optional fast-screen interface a Codec may implement:
// a cheap, allocation-free check that (data, check) is a clean stored
// codeword — true exactly when Decode would return a zero Result. Sweep
// loops use it to reserve the scalar decoder for the rare lines whose
// screen fails.
type Screener interface {
	Codec
	// ScreenClean reports whether Decode(data, check) would return a
	// zero Result (no correction, no detection).
	ScreenClean(data line.Line, check uint64) bool
}

// Compile-time interface compliance checks.
var (
	_ Codec      = None{}
	_ Codec      = (*LineSECDED)(nil)
	_ Codec      = (*WordSECDED)(nil)
	_ BatchCodec = (*BCH)(nil)
	_ Screener   = None{}
	_ Screener   = (*LineSECDED)(nil)
	_ Screener   = (*WordSECDED)(nil)
	_ Screener   = (*BCH)(nil)
)

// None is the no-protection codec: zero storage, zero correction. It
// models the paper's "no ECC" baseline.
type None struct{}

// Name implements Codec.
func (None) Name() string { return "none" }

// CorrectBits implements Codec.
func (None) CorrectBits() int { return 0 }

// DetectBits implements Codec.
func (None) DetectBits() int { return 0 }

// StorageBits implements Codec.
func (None) StorageBits() int { return 0 }

// Encode implements Codec.
func (None) Encode(line.Line) uint64 { return 0 }

// Decode implements Codec.
func (None) Decode(data line.Line, _ uint64) (line.Line, Result) {
	return data, Result{}
}

// ScreenClean implements Screener: without protection every line is
// (vacuously) clean, matching Decode's always-zero Result.
func (None) ScreenClean(line.Line, uint64) bool { return true }

// LineSECDED protects the whole 64-byte line with one SECDED code:
// 11 check bits, the MECC weak code of Fig. 6(ii).
type LineSECDED struct {
	code *hamming.SECDED
}

// NewLineSECDED constructs the line-granularity SECDED codec.
func NewLineSECDED() (*LineSECDED, error) {
	c, err := hamming.NewSECDED(line.Bits)
	if err != nil {
		return nil, fmt.Errorf("ecc: line secded: %w", err)
	}
	return &LineSECDED{code: c}, nil
}

// Name implements Codec.
func (l *LineSECDED) Name() string { return "secded-line" }

// CorrectBits implements Codec.
func (l *LineSECDED) CorrectBits() int { return 1 }

// DetectBits implements Codec.
func (l *LineSECDED) DetectBits() int { return 2 }

// StorageBits implements Codec.
func (l *LineSECDED) StorageBits() int { return l.code.CheckBits() }

// Encode implements Codec.
func (l *LineSECDED) Encode(data line.Line) uint64 {
	buf := [8]uint64(data)
	chk, err := l.code.Encode(buf[:])
	if err != nil {
		// invariant: the buffer length always matches.
		panic(err)
	}
	return chk
}

// Decode implements Codec.
func (l *LineSECDED) Decode(data line.Line, check uint64) (line.Line, Result) {
	buf := [8]uint64(data)
	res, err := l.code.Decode(buf[:], check)
	if err != nil {
		// invariant: the buffer length always matches.
		panic(err)
	}
	return line.Line(buf), Result(res)
}

// ScreenClean implements Screener via the word-parallel Hamming screen.
func (l *LineSECDED) ScreenClean(data line.Line, check uint64) bool {
	buf := [8]uint64(data)
	return l.code.ScreenClean(buf[:], check)
}

// WordSECDED applies the conventional (72,64) code independently to each of
// the eight words of a line (Fig. 6(i)): 64 check bits total, corrects one
// error per word.
type WordSECDED struct {
	code *hamming.Word72
}

// NewWordSECDED constructs the word-granularity SECDED codec.
func NewWordSECDED() (*WordSECDED, error) {
	c, err := hamming.NewWord72()
	if err != nil {
		return nil, fmt.Errorf("ecc: word secded: %w", err)
	}
	return &WordSECDED{code: c}, nil
}

// Name implements Codec.
func (w *WordSECDED) Name() string { return "secded-word" }

// CorrectBits implements Codec. The guarantee is one error anywhere in the
// line (one per word is opportunistic, not guaranteed).
func (w *WordSECDED) CorrectBits() int { return 1 }

// DetectBits implements Codec.
func (w *WordSECDED) DetectBits() int { return 2 }

// StorageBits implements Codec.
func (w *WordSECDED) StorageBits() int { return 64 }

// Encode implements Codec.
func (w *WordSECDED) Encode(data line.Line) uint64 {
	var out uint64
	for i, word := range data {
		out |= uint64(w.code.Encode(word)) << (8 * i)
	}
	return out
}

// Decode implements Codec.
func (w *WordSECDED) Decode(data line.Line, check uint64) (line.Line, Result) {
	var agg Result
	for i, word := range data {
		fixed, res := w.code.Decode(word, uint8(check>>(8*i)))
		if res.Uncorrectable {
			return data, Result{Uncorrectable: true}
		}
		agg.CorrectedBits += res.CorrectedBits
		data[i] = fixed
	}
	return data, agg
}

// ScreenClean implements Screener: each word's re-encode must reproduce
// its stored check byte, exactly the per-word zero-Result condition.
func (w *WordSECDED) ScreenClean(data line.Line, check uint64) bool {
	return w.Encode(data) == check
}

// BCH wraps a t-error-correcting BCH code as a Codec (the strong ECC).
type BCH struct {
	code *bch.Code
	name string
}

// NewBCH constructs an ECC-t codec. When extended is true the code carries
// an overall parity bit raising detection to t+1 (the paper's 61-bit
// "6-correct, 7-detect" option).
func NewBCH(t int, extended bool) (*BCH, error) {
	var (
		c   *bch.Code
		err error
	)
	if extended {
		c, err = bch.NewExtended(t)
	} else {
		c, err = bch.New(t)
	}
	if err != nil {
		return nil, fmt.Errorf("ecc: bch: %w", err)
	}
	return &BCH{code: c, name: fmt.Sprintf("ecc%d", t)}, nil
}

// Name implements Codec.
func (b *BCH) Name() string { return b.name }

// CorrectBits implements Codec.
func (b *BCH) CorrectBits() int { return b.code.T() }

// DetectBits implements Codec.
func (b *BCH) DetectBits() int {
	if b.code.Extended() {
		return b.code.T() + 1
	}
	return b.code.T()
}

// StorageBits implements Codec.
func (b *BCH) StorageBits() int { return b.code.ParityBits() }

// Encode implements Codec.
func (b *BCH) Encode(data line.Line) uint64 { return b.code.Encode(data) }

// Decode implements Codec.
func (b *BCH) Decode(data line.Line, check uint64) (line.Line, Result) {
	fixed, res := b.code.Decode(data, check)
	return fixed, Result(res)
}

// ScreenClean implements Screener via the table re-encode screen.
func (b *BCH) ScreenClean(data line.Line, check uint64) bool {
	return b.code.ScreenClean(data, check)
}

// EncodeBatch implements BatchCodec by delegating to the BCH worker-pool
// encoder.
func (b *BCH) EncodeBatch(data []line.Line, out []uint64) {
	b.code.EncodeBatch(data, out)
}

// DecodeBatch implements BatchCodec by delegating to the BCH worker-pool
// decoder (Result is an alias of bch.Result, so no conversion copy).
func (b *BCH) DecodeBatch(data []line.Line, check []uint64, out []line.Line, results []Result) {
	b.code.DecodeBatch(data, check, out, results)
}

// ByName constructs a codec from its registry name: "none", "secded-word",
// "secded-line", or "ecc1".."ecc6" (append "x" for the extended variant,
// e.g. "ecc6x").
func ByName(name string) (Codec, error) {
	switch name {
	case "none":
		return None{}, nil
	case "secded-word":
		return NewWordSECDED()
	case "secded-line":
		return NewLineSECDED()
	}
	var t int
	extended := false
	if n, err := fmt.Sscanf(name, "ecc%dx", &t); err == nil && n == 1 && fmt.Sprintf("ecc%dx", t) == name {
		extended = true
	} else if n, err := fmt.Sscanf(name, "ecc%d", &t); err != nil || n != 1 || fmt.Sprintf("ecc%d", t) != name {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCodec, name)
	}
	return NewBCH(t, extended)
}

// Names lists the registry names accepted by ByName.
func Names() []string {
	names := []string{"none", "secded-word", "secded-line"}
	for t := 1; t <= 6; t++ {
		names = append(names, fmt.Sprintf("ecc%d", t), fmt.Sprintf("ecc%dx", t))
	}
	return names
}
