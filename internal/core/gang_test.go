package core

import (
	"reflect"
	"testing"

	"repro/internal/eval"
	"repro/internal/testbench"
)

// runWithGang runs one VFocus pipeline on one task with the given gang size,
// worker count and testbench seed, and returns the full result.
func runWithGang(t *testing.T, task eval.Task, gangSize, workers int, tbSeed int64) *Result {
	t.Helper()
	return runPipeline(t, task, VariantVFocus, "qwq-32b", 20, func(c *Config) {
		c.GangSize = gangSize
		c.Workers = workers
		c.TBSeed = tbSeed
	})
}

// TestRankGangMatchesReferee is the acceptance gate for gang-batched
// ranking. For each gang size a fresh testbench seed makes the gang run the
// first to ever simulate those (design, stimulus) pairs — so the gang
// genuinely drives its lanes rather than reading the fingerprint memo — and
// solo printed traces (no gang, no memo) referee every candidate's
// fingerprints and every cluster.
func TestRankGangMatchesReferee(t *testing.T) {
	tasks := eval.Suite()
	for _, idx := range []int{10, 60, 120} {
		task := tasks[idx]
		for _, gangSize := range []int{2, DefaultGangSize, 64} {
			seed := int64(7000 + 10*idx + gangSize)
			res := runWithGang(t, task, gangSize, 4, seed)
			checkPipeline(t, task.ID, res, testbench.BackendCompiled)
		}
	}
}

// TestRankGangSizeDeterministic crosses gang sizes with worker counts on one
// shared stimulus: every combination must produce a bit-identical result
// (the memo may satisfy repeat runs, but batch partitioning, worker pickup
// and result assembly all still run per configuration).
func TestRankGangSizeDeterministic(t *testing.T) {
	task := eval.Suite()[30]
	ref := runWithGang(t, task, 1, 1, 8117)
	for _, gangSize := range []int{2, DefaultGangSize, 64} {
		for _, workers := range []int{1, 4} {
			got := runWithGang(t, task, gangSize, workers, 8117)
			if got.Final != ref.Final || got.FinalIndex != ref.FinalIndex {
				t.Fatalf("final pick diverges with GangSize=%d Workers=%d", gangSize, workers)
			}
			if !reflect.DeepEqual(got.Clusters, ref.Clusters) {
				t.Fatalf("clusters diverge with GangSize=%d Workers=%d", gangSize, workers)
			}
			if got.Stats != ref.Stats {
				t.Fatalf("stats diverge with GangSize=%d Workers=%d: %+v vs %+v",
					gangSize, workers, ref.Stats, got.Stats)
			}
		}
	}
}
