package bch

import "repro/internal/line"

// lfsrTable returns the LFSR remainder table for byte-at-a-time
// systematic encoding: entry b is the register after feeding byte b,
// MSB first, into a zero register. The register holds deg(g) bits in
// the low bits of a uint64.
func (c *Code) lfsrTable() *[256]uint64 {
	deg := c.parityBits
	top := uint64(1) << (deg - 1)
	var tbl [256]uint64
	for b := 0; b < 256; b++ {
		var reg uint64
		for bit := 7; bit >= 0; bit-- {
			in := uint64(b>>bit) & 1
			fb := (reg & top) >> (deg - 1)
			reg = (reg << 1) & ((top << 1) - 1)
			if fb^in == 1 {
				reg ^= c.genMask
			}
		}
		tbl[b] = reg
	}
	return &tbl
}

// encodeLFSR is the serial byte-at-a-time LFSR encoder, kept as the
// reference for the positional-table equivalence test.
func (c *Code) encodeLFSR(data line.Line) uint64 {
	encTable := c.lfsrTable()
	deg := c.parityBits
	top := uint64(1) << (deg - 1)
	regMask := (top << 1) - 1
	var reg uint64
	// Codeword polynomial convention: data bit i sits at exponent
	// parityBits + i; encoding processes highest exponent first, so walk
	// data bytes from the top (byte i of the line is bits 8i..8i+7, i.e.
	// word i/8 shifted by 8*(i%8)). Within the LFSR, shifting in
	// MSB-first bytes matches the table construction.
	for w := len(data) - 1; w >= 0; w-- {
		word := data[w]
		for s := 56; s >= 0; s -= 8 {
			idx := byte(reg>>(deg-8)) ^ byte(word>>uint(s))
			reg = ((reg << 8) & regMask) ^ encTable[idx]
		}
	}
	if c.extended {
		reg |= c.overallParity(data, reg) << deg
	}
	return reg
}

// syndromes computes S_1..S_2t of a received word the way decode does,
// from its remainder. It is the allocating convenience wrapper kept for
// tests; bits of parity at or above parityBits are ignored.
func (c *Code) syndromes(data line.Line, parity uint64) []uint16 {
	var scratch [maxSyn]uint16
	parity &= (uint64(1) << c.parityBits) - 1
	rem := c.encodeRemainder(&data) ^ parity
	for i := 0; i < c.t; i++ {
		scratch[2*i] = c.oddSyndrome(i, rem)
	}
	c.evenSyndromes(&scratch)
	synd := make([]uint16, 2*c.t)
	copy(synd, scratch[:])
	return synd
}

// syndromesBitwise is the reference bit-serial implementation, kept for
// the equivalence property test.
func (c *Code) syndromesBitwise(data line.Line, parity uint64) []uint16 {
	f := c.field
	synd := make([]uint16, 2*c.t)
	for j := 1; j <= 2*c.t; j++ {
		aj := f.Alpha(j)
		var acc uint16
		for w := 7; w >= 0; w-- {
			word := data[w]
			for bit := 63; bit >= 0; bit-- {
				acc = f.Mul(acc, aj) ^ uint16((word>>uint(bit))&1)
			}
		}
		for bit := c.parityBits - 1; bit >= 0; bit-- {
			acc = f.Mul(acc, aj) ^ uint16((parity>>uint(bit))&1)
		}
		synd[j-1] = acc
	}
	return synd
}
