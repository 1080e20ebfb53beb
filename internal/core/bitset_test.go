package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPagedBitsetMatchesReference drives the paged bitset and a plain
// []bool through the same random sequences of every operation and
// requires identical answers. Sizes straddle page boundaries, and range
// ends cluster near them, so nil pages, partial pages and whole-page
// ranges are all exercised.
func TestPagedBitsetMatchesReference(t *testing.T) {
	for _, n := range []uint64{1, 130, pageBits - 1, pageBits, 3*pageBits + 77} {
		rng := rand.New(rand.NewSource(int64(n)))
		b := newBitset(n)
		ref := make([]bool, n)
		// index picks a bit, half the time within 70 of a page boundary.
		index := func() uint64 {
			if rng.Intn(2) == 0 {
				return uint64(rng.Int63n(int64(n)))
			}
			edge := uint64(rng.Int63n(int64(n/pageBits+1))) * pageBits
			i := int64(edge) + rng.Int63n(141) - 70
			return uint64(max(0, min(i, int64(n)-1)))
		}
		span := func() (uint64, uint64) {
			lo, hi := index(), index()+1
			if lo > hi {
				lo, hi = hi, lo
			}
			return lo, hi
		}
		for op := 0; op < 4000; op++ {
			switch rng.Intn(9) {
			case 0, 1:
				i := index()
				if b.get(i) != ref[i] {
					t.Fatalf("n=%d op %d: get(%d) = %v, want %v", n, op, i, b.get(i), ref[i])
				}
			case 2, 3:
				i, v := index(), rng.Intn(3) != 0
				b.set(i, v)
				ref[i] = v
			case 4:
				if rng.Intn(20) == 0 {
					v := rng.Intn(2) == 0
					b.setAll(v)
					for i := range ref {
						ref[i] = v
					}
				}
			case 5:
				lo, hi := span()
				b.setRange(lo, hi)
				for i := lo; i < hi; i++ {
					ref[i] = true
				}
			case 6:
				lo, hi := span()
				var want uint64
				for i := lo; i < hi; i++ {
					if ref[i] {
						want++
					}
				}
				if got := b.countRange(lo, hi); got != want {
					t.Fatalf("n=%d op %d: countRange(%d, %d) = %d, want %d", n, op, lo, hi, got, want)
				}
			case 7:
				lo, hi := span()
				var want []uint64
				for i := lo; i < hi; i++ {
					if !ref[i] {
						want = append(want, i)
					}
				}
				if got := b.appendZeroIndices(lo, hi, nil); !slices.Equal(got, want) {
					t.Fatalf("n=%d op %d: appendZeroIndices(%d, %d) = %d indices, want %d", n, op, lo, hi, len(got), len(want))
				}
			case 8:
				var want uint64
				for _, v := range ref {
					if v {
						want++
					}
				}
				if got := b.count(); got != want {
					t.Fatalf("n=%d op %d: count = %d, want %d", n, op, got, want)
				}
			}
		}
	}
}

// TestPagedBitsetHoldsOnlyTouchedPages pins the memory claim: an
// all-strong table of 16M lines holds no page and two downgrades in one
// page hold one.
func TestPagedBitsetHoldsOnlyTouchedPages(t *testing.T) {
	held := func(b *bitset) int {
		n := 0
		for _, p := range b.pages {
			if p != nil {
				n++
			}
		}
		return n
	}
	b := newBitset(1 << 24)
	b.setAll(true)
	if held(b) != 0 {
		t.Fatalf("all-strong table holds %d pages", held(b))
	}
	b.set(5*pageBits+3, false)
	b.set(5*pageBits+9, false)
	if held(b) != 1 {
		t.Fatalf("two downgrades in one page hold %d pages, want 1", held(b))
	}
}
