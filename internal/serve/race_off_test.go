//go:build !race

package serve

// raceEnabled reports that the race detector is inactive.
const raceEnabled = false
