package memctrl

import "testing"

// TestMonotonicDelta pins the clamp that keeps cycle deltas sane: a
// count that runs backwards must contribute 0, not a near-2^64 delta
// that poisons every cumulative latency or duration after it.
func TestMonotonicDelta(t *testing.T) {
	cases := []struct{ cur, prev, want uint64 }{
		{10, 3, 7},
		{3, 3, 0},
		{3, 10, 0}, // backwards: clamp, don't wrap
		{0, ^uint64(0), 0},
		{^uint64(0), 0, ^uint64(0)},
	}
	for _, c := range cases {
		if got := monotonicDelta(c.cur, c.prev); got != c.want {
			t.Errorf("monotonicDelta(%d, %d) = %d, want %d", c.cur, c.prev, got, c.want)
		}
	}
}
