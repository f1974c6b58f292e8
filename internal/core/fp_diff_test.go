package core

import (
	"context"
	"testing"

	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/referee"
	"repro/internal/testbench"
	"repro/internal/verilog/ast"
)

// runPipeline runs one pipeline on one task with the given sampling, worker
// and simulation settings.
func runPipeline(t *testing.T, task eval.Task, v Variant, model string, samples int, cfgFn func(*Config)) *Result {
	t.Helper()
	profile, err := llm.ProfileByName(model)
	if err != nil {
		t.Fatal(err)
	}
	client, err := llm.NewSimClient(profile, 11, []eval.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(v, profile.Name)
	cfg.Samples = samples
	cfg.RetryBaseDelay = 0
	cfgFn(&cfg)
	res, err := New(client, cfg).Run(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// refereeClusters converts ranked clusters to the referee's form.
func refereeClusters(cls []Cluster) []referee.Cluster {
	out := make([]referee.Cluster, len(cls))
	for i, cl := range cls {
		out[i] = referee.Cluster{Fingerprint: cl.Fingerprint, Members: cl.Members}
	}
	return out
}

// checkRankPool requires a RankPool result over srcs under st to match the
// referee's solo printed traces: every candidate's case fingerprints and
// error, and every cluster's fingerprint and members.
func checkRankPool(t *testing.T, label string, srcs []*ast.Source, st *testbench.Stimulus, backend testbench.Backend, got *RankPoolResult) {
	t.Helper()
	ref := referee.Rank(srcs, eval.TopModule, st, backend)
	for i := range srcs {
		if err := ref.CheckTrace(i, got.FPs[i]); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	if err := ref.CheckClusters(refereeClusters(got.Clusters)); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// checkPipeline requires a pipeline's ranking to match the referee: the
// ranked candidates' fingerprint records and the clusters as ranking formed
// them (refinement may reorder clusters and raise scores, never change
// members), and every admitted refined candidate's fingerprint record.
func checkPipeline(t *testing.T, label string, res *Result, backend testbench.Backend) {
	t.Helper()
	ranked := make([]*ast.Source, len(res.Candidates))
	refined := make([]*ast.Source, len(res.Candidates))
	for i := range res.Candidates {
		c := &res.Candidates[i]
		switch {
		case c.Refined:
			refined[i] = c.Source
		case c.Valid && !c.Filtered:
			ranked[i] = c.Source
		}
	}
	st := res.rankingStimulus
	ref := referee.Rank(ranked, eval.TopModule, st, backend)
	refRefined := referee.Rank(refined, eval.TopModule, st, backend)
	for i := range res.Candidates {
		r := ref
		if res.Candidates[i].Refined {
			r = refRefined
		}
		if err := r.CheckTrace(i, res.Candidates[i].FPTrace); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	if err := ref.CheckClusters(refereeClusters(res.Clusters)); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// TestFingerprintPathMatchesReferee referees the streaming ranking path:
// across task families, models, variants and worker counts, every ranked
// and refined candidate's fingerprints and every cluster must match solo
// printed traces.
func TestFingerprintPathMatchesReferee(t *testing.T) {
	all := eval.Suite()
	// A spread covering combinational and sequential families, including the
	// tasks whose cluster structure exercises judging and focused refinement.
	for _, tc := range []struct {
		taskIdx int
		model   string
		variant Variant
		workers int
	}{
		{0, "deepseek-r1", VariantVFocus, 1},
		{30, "qwq-32b", VariantVFocus, 1},
		{60, "qwq-32b", VariantVFocus, 4},
		{90, "o3-mini-high", VariantVFocus, 1},
		{120, "qwq-32b", VariantVFocus, 4},
		{150, "deepseek-r1", VariantVFocus, 1},
		{45, "qwq-32b", VariantVRank, 1},
		{100, "qwq-32b", VariantPreVRank, 4},
	} {
		task := all[tc.taskIdx]
		label := task.ID + "/" + tc.model + "/" + tc.variant.String()
		res := runPipeline(t, task, tc.variant, tc.model, 20, func(c *Config) { c.Workers = tc.workers })
		checkPipeline(t, label, res, testbench.BackendCompiled)
	}
}

// TestFingerprintPathMatchesRefereeOnInterpreter repeats the referee check
// on the interpreter backend, whose fingerprint runs bypass the memo and the
// store.
func TestFingerprintPathMatchesRefereeOnInterpreter(t *testing.T) {
	all := eval.Suite()
	for _, idx := range []int{30, 120} {
		task := all[idx]
		res := runPipeline(t, task, VariantVFocus, "qwq-32b", 12, func(c *Config) { c.Backend = testbench.BackendInterpreter })
		checkPipeline(t, task.ID+"/interpreter", res, testbench.BackendInterpreter)
	}
}
