// Package line provides the 512-bit cache-line value type used throughout
// the simulator. A line is the unit of ECC protection in MECC: 64 bytes of
// data plus 8 bytes of ECC/metadata stored alongside it in the DRAM array.
package line

import (
	"encoding/hex"
	"math/bits"
)

// Bits is the number of data bits in a cache line.
const Bits = 512

// Bytes is the number of data bytes in a cache line.
const Bytes = Bits / 8

// Line is a 512-bit cache line, stored as eight little-endian words.
// Bit i of the line is bit (i%64) of word i/64. The zero value is the
// all-zero line and is ready to use.
type Line [8]uint64

// Bytes returns the line as a fresh 64-byte slice (little-endian words).
func (l Line) Bytes() []byte {
	out := make([]byte, Bytes)
	for w, word := range l {
		for i := 0; i < 8; i++ {
			out[w*8+i] = byte(word >> (8 * i))
		}
	}
	return out
}

// Bit returns bit i (0 <= i < 512) of the line.
func (l Line) Bit(i int) uint {
	return uint(l[i>>6]>>(uint(i)&63)) & 1
}

// FlipBit inverts bit i and returns the updated line.
func (l Line) FlipBit(i int) Line {
	l[i>>6] ^= uint64(1) << (uint(i) & 63)
	return l
}

// XOR returns the bitwise XOR of two lines.
func (l Line) XOR(o Line) Line {
	for w := range l {
		l[w] ^= o[w]
	}
	return l
}

// PopCount returns the number of set bits in the line.
func (l Line) PopCount() int {
	n := 0
	for _, w := range l {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsZero reports whether every bit of the line is zero.
func (l Line) IsZero() bool {
	return l == Line{}
}

// Diff returns the positions of bits at which l and o differ.
func (l Line) Diff(o Line) []int {
	var pos []int
	for w := range l {
		x := l[w] ^ o[w]
		for x != 0 {
			b := bits.TrailingZeros64(x)
			pos = append(pos, w*64+b)
			x &= x - 1
		}
	}
	return pos
}

// String renders the line as 128 hex digits, word 0 first.
func (l Line) String() string {
	return hex.EncodeToString(l.Bytes())
}
