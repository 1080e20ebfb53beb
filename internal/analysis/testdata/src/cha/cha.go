// Package cha is the devirtualization golden fixture: one hot root
// makes four interface calls, and class-hierarchy analysis proves the
// two whose interfaces are closed to root types and whose every root
// implementer is clean.
package cha

// Word is root-declared: an interface method naming it can only be
// implemented by a type that imports this package.
type Word uint64

// Mixer names Word, so only root types implement it; both are clean.
type Mixer interface {
	Mix(w Word) Word
}

// Shifter names Word too, but one of its implementers allocates.
type Shifter interface {
	Shift(w Word) Word
}

// Scaler's methods are exported and use only stdlib types, so a type
// outside the roots could implement it: its calls stay unproven even
// though every root implementer is clean.
type Scaler interface {
	Scale(x uint64) uint64
}

// stepper's method is unexported, which also closes it to this package.
type stepper interface {
	step(x uint64) uint64
}

type xorMix struct{ k Word }

func (m xorMix) Mix(w Word) Word { return w ^ m.k }

type addMix struct{ k Word }

func (m *addMix) Mix(w Word) Word { return w + m.k }

type leftShift struct{}

func (leftShift) Shift(w Word) Word { return w << 1 }

type keepShift struct{ last []Word }

func (k *keepShift) Shift(w Word) Word {
	k.last = make([]Word, 1)
	k.last[0] = w
	return w >> 1
}

type double struct{}

func (double) Scale(x uint64) uint64 { return 2 * x }

type inc struct{}

func (inc) step(x uint64) uint64 { return x + 1 }

// Hot drives all four interfaces.
//
//meccvet:hotpath
func Hot(m Mixer, s Shifter, c Scaler, n stepper, w Word) Word {
	w = m.Mix(w)
	w = s.Shift(w)          // want `dynamic call in hot path Hot cannot be proven allocation-free`
	x := c.Scale(uint64(w)) // want `dynamic call in hot path Hot cannot be proven allocation-free`
	return Word(n.step(x))
}
