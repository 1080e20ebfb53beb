package checker

// A shadow page is 4 KiB: pageBits bits in pageWords words.
const (
	pageBits  = 1 << 15
	pageWords = pageBits / 64
)

// bitset is the MECC shadow mode bitmap (16M lines at the paper's
// memory size), held in 4 KiB pages that are allocated on their first
// set. A nil page reads as all clear, so a tracker holds only a page
// directory plus the pages its run has downgraded lines in. It
// deliberately shares no code with core's mode table, which it checks.
type bitset struct {
	pages []*[pageWords]uint64
}

func newBitset(n uint64) *bitset {
	return &bitset{pages: make([]*[pageWords]uint64, (n+pageBits-1)/pageBits)}
}

func (b *bitset) get(i uint64) bool {
	p := b.pages[i/pageBits]
	return p != nil && p[i/64%pageWords]>>(i&63)&1 == 1
}

// set sets bit i, allocating its page on first use.
func (b *bitset) set(i uint64) {
	p := b.pages[i/pageBits]
	if p == nil {
		p = new([pageWords]uint64)
		b.pages[i/pageBits] = p
	}
	p[i/64%pageWords] |= 1 << (i & 63)
}

// clearAll clears every bit by dropping every page.
func (b *bitset) clearAll() { clear(b.pages) }
