//go:build !race

package exp

// raceEnabled reports that the race detector is inactive.
const raceEnabled = false
