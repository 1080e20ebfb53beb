// Package hamming implements single-error-correcting, double-error-
// detecting (SECDED) Hamming codes: the classical (72,64) word-granularity
// code of commodity ECC memories and the (523,512)-style line-granularity
// code that MECC uses as its weak ECC (11 check bits per 64-byte line,
// paper Section III-D).
package hamming

import (
	"errors"
	"fmt"
	"math/bits"
)

// Errors returned by code construction and use.
var (
	ErrBadDataBits = errors.New("hamming: data bits must be in [1, 4096]")
	ErrBadInput    = errors.New("hamming: input has wrong number of words")
)

// Result describes the outcome of a decode.
type Result struct {
	// CorrectedBits is 1 when a single-bit error (data, check or overall
	// parity) was repaired, otherwise 0.
	CorrectedBits int
	// Uncorrectable is set when a double-bit error was detected.
	Uncorrectable bool
}

// SECDED is a Hamming single-error-correcting code over dataBits bits,
// extended with an overall parity bit for double-error detection. It is
// immutable after construction and safe for concurrent use.
type SECDED struct {
	dataBits  int
	checkBits int // Hamming check bits, excluding the overall parity bit
	n         int // codeword length without the parity bit
	dataPos   []uint32
	posToData []int32 // codeword position -> data index, -1 for check bits
	// masks holds one bit-sliced selector per check bit: row j (stride
	// maskStride words) has bit i set when data bit i contributes to
	// syndrome bit j, i.e. bit j of dataPos[i] is set. Syndrome bit j is
	// then the parity of the fold-XOR of data AND row j — a handful of
	// word operations instead of a walk over every data bit.
	masks      []uint64
	maskStride int
	// lastMask zeroes the slack bits of the last data word, so popcounts
	// over whole words match the bit-serial walk that stops at dataBits.
	lastMask uint64
	// errLen is the prebuilt wrong-length error, so the Encode/Decode
	// guard clauses stay allocation-free even when they fire.
	errLen error
}

// NewSECDED constructs a SECDED code for the given number of data bits.
// The total check overhead is CheckBits(): e.g. 8 for 64 data bits (the
// (72,64) code) and 11 for 512 data bits (the MECC weak code).
func NewSECDED(dataBits int) (*SECDED, error) {
	if dataBits < 1 || dataBits > 4096 {
		return nil, fmt.Errorf("%w: %d", ErrBadDataBits, dataBits)
	}
	r := 2
	for (1<<r)-r-1 < dataBits {
		r++
	}
	n := dataBits + r
	s := &SECDED{
		dataBits:  dataBits,
		checkBits: r,
		n:         n,
		dataPos:   make([]uint32, dataBits),
		posToData: make([]int32, n+1),
	}
	idx := 0
	for pos := 1; pos <= n; pos++ {
		if pos&(pos-1) == 0 { // power of two: check-bit position
			s.posToData[pos] = -1
			continue
		}
		s.dataPos[idx] = uint32(pos)
		s.posToData[pos] = int32(idx)
		idx++
	}
	s.buildMasks()
	s.errLen = fmt.Errorf("%w: want %d", ErrBadInput, s.wordsNeeded())
	return s, nil
}

// buildMasks derives the bit-sliced syndrome selectors from dataPos.
func (s *SECDED) buildMasks() {
	s.maskStride = s.wordsNeeded()
	s.masks = make([]uint64, s.checkBits*s.maskStride)
	for i, pos := range s.dataPos {
		for j := 0; j < s.checkBits; j++ {
			if pos>>uint(j)&1 == 1 {
				s.masks[j*s.maskStride+i/64] |= 1 << (uint(i) & 63)
			}
		}
	}
	if tail := uint(s.dataBits) & 63; tail != 0 {
		s.lastMask = (uint64(1) << tail) - 1
	} else {
		s.lastMask = ^uint64(0)
	}
}

// CheckBits returns the total stored check width, including the overall
// parity bit.
func (s *SECDED) CheckBits() int { return s.checkBits + 1 }

// flipBit inverts bit i of a little-endian word vector in place.
func flipBit(v []uint64, i int) { v[i>>6] ^= 1 << (uint(i) & 63) }

func (s *SECDED) wordsNeeded() int { return (s.dataBits + 63) / 64 }

// syndromeOf evaluates the Hamming syndrome and the data popcount in one
// word-parallel pass: each syndrome bit is the parity of the fold-XOR of
// the data words under its bit-sliced mask. Equivalent to walking every
// data bit through dataPos (syndromeBitSerial, the reference in the
// tests), at a fraction of the cost.
func (s *SECDED) syndromeOf(data []uint64) (uint32, int) {
	last := len(data) - 1
	ones := 0
	for w := 0; w < last; w++ {
		ones += bits.OnesCount64(data[w])
	}
	ones += bits.OnesCount64(data[last] & s.lastMask)
	var synd uint32
	stride := s.maskStride
	for j := 0; j < s.checkBits; j++ {
		row := s.masks[j*stride : (j+1)*stride]
		var acc uint64
		for w := range row {
			acc ^= data[w] & row[w]
		}
		synd |= uint32(bits.OnesCount64(acc)&1) << uint(j)
	}
	return synd, ones
}

// Encode computes the check word for data, given as ceil(dataBits/64)
// little-endian words. Layout of the returned word: bits [0,checkBits) are
// the Hamming check bits (bit j covers positions with bit j set), bit
// checkBits is the overall parity over data and check bits.
func (s *SECDED) Encode(data []uint64) (uint64, error) {
	if len(data) != s.wordsNeeded() {
		return 0, s.errLen
	}
	synd, ones := s.syndromeOf(data)
	check := uint64(synd)
	ones += bits.OnesCount32(synd)
	parity := uint64(ones) & 1
	return check | parity<<s.checkBits, nil
}

// ScreenClean reports whether (data, check) is a clean stored codeword:
// zero syndrome and matching overall parity, exactly the condition under
// which Decode returns a zero Result. It is the allocation-free fast
// screen the batched upgrade sweep runs before falling back to Decode;
// check bits above the stored width are ignored, as in Decode. Inputs of
// the wrong length screen as not-clean.
func (s *SECDED) ScreenClean(data []uint64, check uint64) bool {
	if len(data) != s.wordsNeeded() {
		return false
	}
	synd, ones := s.syndromeOf(data)
	if synd != uint32(check&((1<<s.checkBits)-1)) {
		return false
	}
	ones += bits.OnesCount32(synd)
	return uint64(ones)&1 == (check>>s.checkBits)&1
}

// Decode verifies data against the stored check word, correcting a single
// bit error in place (data is modified) and detecting double errors.
func (s *SECDED) Decode(data []uint64, check uint64) (Result, error) {
	if len(data) != s.wordsNeeded() {
		return Result{}, s.errLen
	}
	storedParity := (check >> s.checkBits) & 1
	storedCheck := uint32(check & ((1 << s.checkBits) - 1))

	synd, ones := s.syndromeOf(data)
	synd ^= storedCheck
	ones += bits.OnesCount32(storedCheck)
	parityErr := (uint64(ones)&1 != storedParity)

	switch {
	case synd == 0 && !parityErr:
		return Result{}, nil
	case synd == 0 && parityErr:
		// The overall parity bit itself flipped; data is intact.
		return Result{CorrectedBits: 1}, nil
	case parityErr:
		// Odd number of errors with nonzero syndrome: treat as single.
		if int(synd) > s.n {
			return Result{Uncorrectable: true}, nil
		}
		if di := s.posToData[synd]; di >= 0 {
			flipBit(data, int(di))
		}
		// An error in a check-bit position needs no data repair.
		return Result{CorrectedBits: 1}, nil
	default:
		// Nonzero syndrome with matching parity: double error.
		return Result{Uncorrectable: true}, nil
	}
}

// Word72 is the conventional (72,64) SECDED code applied to one 64-bit
// word: 8 check bits per word, as in commodity ECC DIMMs. Eight of these
// protect a 64-byte line at word granularity (Fig. 6(i) of the paper).
type Word72 struct {
	inner *SECDED
}

// NewWord72 constructs the (72,64) code.
func NewWord72() (*Word72, error) {
	inner, err := NewSECDED(64)
	if err != nil {
		return nil, err
	}
	if inner.CheckBits() != 8 {
		return nil, fmt.Errorf("hamming: (72,64) check width = %d, want 8", inner.CheckBits())
	}
	return &Word72{inner: inner}, nil
}

// Encode returns the 8 check bits for one data word.
func (w *Word72) Encode(data uint64) uint8 {
	chk, err := w.inner.Encode([]uint64{data})
	if err != nil {
		// invariant: the slice length always matches.
		panic(err)
	}
	return uint8(chk)
}

// Decode verifies one word, returning the corrected word.
func (w *Word72) Decode(data uint64, check uint8) (uint64, Result) {
	buf := []uint64{data}
	res, err := w.inner.Decode(buf, uint64(check))
	if err != nil {
		// invariant: the slice length always matches.
		panic(err)
	}
	return buf[0], res
}
