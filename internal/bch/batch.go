package bch

import (
	"repro/internal/batch"
	"repro/internal/line"
)

// minLinesPerWorker is the smallest slice of lines worth shipping to a
// pool worker; smaller batches run inline. 32 lines are about 2.5 µs
// of clean ECC-6 decodes and 13-22 µs of one- or two-error ones.
const minLinesPerWorker = 32

// EncodeBatch computes parity for each line of data into parityOut,
// fanning the work out over the workers of batch.Default() (small
// batches run inline). parityOut[i] corresponds to data[i]. It panics if the slice
// lengths differ — a programming error, matching the copy-style contract
// of the other batch APIs.
func (c *Code) EncodeBatch(data []line.Line, parityOut []uint64) {
	if len(data) != len(parityOut) {
		// invariant: callers pass parallel slices (documented contract).
		panic("bch: EncodeBatch slice lengths differ")
	}
	// One closure per call, inline or fanned out: a fixed cost amortized
	// over the lines (TestDecodeZeroAllocs pins it).
	batch.Default().Run(len(data), minLinesPerWorker, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			parityOut[i] = c.encode(&data[i])
		}
		obsEncodes.Add(uint64(hi - lo))
	})
}
