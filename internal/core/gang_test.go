package core

import (
	"testing"

	"repro/internal/eval"
	"repro/internal/testbench"
)

// TestRankGangMatchesReferee is the acceptance gate for ranking through a
// GangPlan. A fresh testbench seed per task makes the plan the first to ever
// simulate those (design, stimulus) pairs — so it genuinely runs them
// rather than reading the fingerprint memo — and solo printed traces (no
// plan, no memo) referee every candidate's fingerprints and every cluster.
func TestRankGangMatchesReferee(t *testing.T) {
	tasks := eval.Suite()
	for _, idx := range []int{10, 60, 120} {
		task := tasks[idx]
		res := runPipeline(t, task, VariantVFocus, "qwq-32b", 20, func(c *Config) {
			c.Workers = 4
			c.TBSeed = int64(7000 + 10*idx)
		})
		checkPipeline(t, task.ID, res, testbench.BackendCompiled)
	}
}
