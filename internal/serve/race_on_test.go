//go:build race

package serve

// raceEnabled reports that the race detector is active (alloc accounting is
// perturbed by it, so tight allocation budgets skip).
const raceEnabled = true
