//go:build race

package exp

// raceEnabled reports that the race detector is active (the paper-size
// pinned experiments run several times slower under it, so they skip).
const raceEnabled = true
