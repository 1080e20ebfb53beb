package core

import "math/bits"

// A bitset page is 4 KiB: pageBits bits in pageWords words.
const (
	pageBits  = 1 << 15
	pageWords = pageBits / 64
)

// page is one 4 KiB block of a bitset.
type page [pageWords]uint64

// bitset is a fixed-size bit vector held in 4 KiB pages, used for the
// per-line ECC-mode table and the MDT region table. A nil page reads as
// the table's fill value, so a table holds only the pages where some bit
// differs from fill: 16M lines all strong cost a 4 KiB page directory,
// not 2 MB, and a MECC run holds just the pages it downgraded lines in.
type bitset struct {
	pages []*page
	fill  bool
	n     uint64
}

func newBitset(n uint64) *bitset {
	return &bitset{pages: make([]*page, (n+pageBits-1)/pageBits), n: n}
}

func (b *bitset) len() uint64 { return b.n }

func (b *bitset) get(i uint64) bool {
	p := b.pages[i/pageBits]
	if p == nil {
		return b.fill
	}
	return p[i/64%pageWords]>>(i&63)&1 == 1
}

func (b *bitset) set(i uint64, v bool) {
	p := b.pages[i/pageBits]
	if p == nil {
		if v == b.fill {
			return
		}
		p = b.newPage()
		b.pages[i/pageBits] = p
	}
	if v {
		p[i/64%pageWords] |= 1 << (i & 63)
	} else {
		p[i/64%pageWords] &^= 1 << (i & 63)
	}
}

// newPage returns a page with every bit at the fill value.
func (b *bitset) newPage() *page {
	p := new(page)
	if b.fill {
		for w := range p {
			p[w] = ^uint64(0)
		}
	}
	return p
}

// setAll sets every bit to v, releasing every page.
func (b *bitset) setAll(v bool) {
	clear(b.pages)
	b.fill = v
}

// rangeMask selects the bits of word w that lie in [lo, hi).
func rangeMask(w, lo, hi uint64) uint64 {
	m := ^uint64(0)
	if w == lo>>6 {
		m &^= (1 << (lo & 63)) - 1
	}
	if w == (hi-1)>>6 && hi&63 != 0 {
		m &= (1 << (hi & 63)) - 1
	}
	return m
}

// pageEnd returns the end of the page holding bit lo, capped at hi.
func pageEnd(lo, hi uint64) uint64 {
	return min(hi, (lo/pageBits+1)*pageBits)
}

// countRange returns the number of set bits in [lo, hi), word-at-a-time
// over held pages and in one step over each nil page.
func (b *bitset) countRange(lo, hi uint64) uint64 {
	var n uint64
	for lo < hi {
		end := pageEnd(lo, hi)
		if p := b.pages[lo/pageBits]; p != nil {
			for w := lo >> 6; w <= (end-1)>>6; w++ {
				n += uint64(bits.OnesCount64(p[w%pageWords] & rangeMask(w, lo, end)))
			}
		} else if b.fill {
			n += end - lo
		}
		lo = end
	}
	return n
}

// setRange sets every bit in [lo, hi), word-at-a-time.
func (b *bitset) setRange(lo, hi uint64) {
	for lo < hi {
		end := pageEnd(lo, hi)
		pi := lo / pageBits
		p := b.pages[pi]
		if p == nil {
			if b.fill {
				lo = end
				continue
			}
			p = b.newPage()
			b.pages[pi] = p
		}
		for w := lo >> 6; w <= (end-1)>>6; w++ {
			p[w%pageWords] |= rangeMask(w, lo, end)
		}
		lo = end
	}
}

// appendZeroIndices appends the indices of the clear bits in [lo, hi) to
// buf, in increasing order, scanning whole words and popping cleared bits
// with TrailingZeros — cost is proportional to held words plus hits, not
// bits.
func (b *bitset) appendZeroIndices(lo, hi uint64, buf []uint64) []uint64 {
	for lo < hi {
		end := pageEnd(lo, hi)
		p := b.pages[lo/pageBits]
		switch {
		case p != nil:
			for w := lo >> 6; w <= (end-1)>>6; w++ {
				// Invert so clear bits become ones, and mask off
				// out-of-range bits.
				word := ^p[w%pageWords] & rangeMask(w, lo, end)
				base := w << 6
				for word != 0 {
					buf = append(buf, base+uint64(bits.TrailingZeros64(word)))
					word &= word - 1
				}
			}
		case !b.fill:
			for i := lo; i < end; i++ {
				buf = append(buf, i)
			}
		}
		lo = end
	}
	return buf
}

// count returns the number of set bits.
func (b *bitset) count() uint64 { return b.countRange(0, b.n) }
