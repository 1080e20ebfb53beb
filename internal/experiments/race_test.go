//go:build race

package experiments

// raceEnabled reports a -race build. The race detector's sync.Pool
// drops cached objects at random, so fmt's allocation count per call
// varies and exact allocation counts cannot be compared.
const raceEnabled = true
