package testbench_test

import (
	"runtime"
	"testing"

	"repro/internal/eval"
	"repro/internal/testbench"
)

// TestStimulusGenAllocs gates the plane-native generator: a dense sequential
// verification stimulus costs a handful of allocations (the planes and the
// schedule around them, never one per step or value), and the suite's
// stimuli — what the process-wide stimulus memo holds — stay small after GC.
func TestStimulusGenAllocs(t *testing.T) {
	if testbench.RaceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	seq := testbench.Interface{
		Inputs:  []testbench.PortSpec{{Name: "clk", Width: 1}, {Name: "reset", Width: 1}, {Name: "d", Width: 4}},
		Outputs: []testbench.PortSpec{{Name: "q", Width: 4}},
		Clock:   "clk",
		Reset:   "reset",
	}
	const allocBudget = 16
	allocs := testing.AllocsPerRun(20, func() {
		testbench.NewGenerator(42).Verification(seq)
	})
	t.Logf("sequential verification stimulus: %.0f allocs (budget %d)", allocs, allocBudget)
	if allocs > allocBudget {
		t.Errorf("generating a verification stimulus allocates %.0f objects, budget %d", allocs, allocBudget)
	}

	// Footprint: the ranking and verification stimulus of every suite task,
	// each with its content hash computed, as a warm stimulus memo holds
	// them.
	const footprintBudget = 4 << 20
	suite := eval.Suite()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	kept := make([]*testbench.Stimulus, 0, 2*len(suite))
	for _, tk := range suite {
		for _, st := range []*testbench.Stimulus{
			testbench.NewGenerator(1).Ranking(tk.Ifc),
			testbench.NewGenerator(1).Verification(tk.Ifc),
		} {
			testbench.StimulusContentHash(st)
			kept = append(kept, st)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	retained := int64(ms.HeapAlloc) - int64(before)
	runtime.KeepAlive(kept)
	t.Logf("%d suite stimuli retain %.2f MB (%.0f B each; budget %d MB)",
		len(kept), float64(retained)/(1<<20), float64(retained)/float64(len(kept)), footprintBudget>>20)
	if retained > footprintBudget {
		t.Errorf("%d suite stimuli retain %d bytes after GC, budget %d", len(kept), retained, footprintBudget)
	}
}
