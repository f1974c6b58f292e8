package testbench

// StimulusContentHash exposes the persistent-store stimulus hash to the
// external test package.
func StimulusContentHash(st *Stimulus) string { return st.contentHash() }

// RaceEnabled reports whether the race detector is active.
const RaceEnabled = raceEnabled
