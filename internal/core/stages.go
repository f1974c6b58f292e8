package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/testbench"
	"repro/internal/verilog/ast"
	"repro/internal/xrng"
)

// workerCount bounds the ranking pool: never more goroutines than jobs, and
// one (inline, no goroutines) when the config leaves Workers unset.
func (p *Pipeline) workerCount(jobs int) int {
	w := p.cfg.Workers
	if w < 1 {
		w = 1
	}
	if w > jobs {
		w = jobs
	}
	return w
}

// rngFor derives a deterministic RNG for selection decisions. Selection
// draws a handful of values per task, but math/rand's 607-word seeding per
// derivation still summed to a visible profile slice across tasks × variants
// × runs; xrng seeds in one word.
func (p *Pipeline) rngFor(taskID, role string) *xrng.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s", p.cfg.SelectSeed, taskID, role)
	return xrng.New(h.Sum64())
}

// pickBaseline selects a uniformly random candidate (the paper's random-pick
// baseline; pass@k aggregates over the whole pool, selection here is for the
// CLI's benefit).
func (p *Pipeline) pickBaseline(res *Result) {
	rng := p.rngFor(res.Task.ID, "baseline")
	idx := rng.Intn(len(res.Candidates))
	res.Final = res.Candidates[idx].Code
	res.FinalIndex = idx
}

// minFilteredPool is the smallest candidate pool Density-guided Filtering
// is allowed to leave behind. Percentile bounds estimated from a handful of
// samples are noise, and clustering a 3-candidate pool is worse than
// clustering an unfiltered small pool — so for tiny sample budgets the
// filter steps aside and pre-ranking contributes through the validity
// retry alone.
const minFilteredPool = 8

// densityFilter implements Density-guided Filtering: compute each valid
// candidate's min-max normalized reasoning length over the task's sample
// pool and drop candidates outside (LminPct, LmaxPct). Candidates without a
// reasoning trace are dropped whenever a lower bound exists. Two guards
// keep the filter from destroying the pool: it never removes every
// candidate, and it backs off entirely when it would leave fewer than
// minFilteredPool candidates for ranking.
func (p *Pipeline) densityFilter(ctx context.Context, res *Result) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var lens []int
	for i := range res.Candidates {
		c := &res.Candidates[i]
		if c.Valid && c.ReasoningTokens > 0 {
			lens = append(lens, c.ReasoningTokens)
		}
	}
	if len(lens) < 4 {
		return nil // not enough signal to estimate the sweet spot
	}
	minL, maxL := lens[0], lens[0]
	for _, l := range lens {
		if l < minL {
			minL = l
		}
		if l > maxL {
			maxL = l
		}
	}
	span := maxL - minL
	if span == 0 {
		return nil
	}
	kept := 0
	for i := range res.Candidates {
		c := &res.Candidates[i]
		if !c.Valid {
			continue
		}
		if c.ReasoningTokens <= 0 {
			if p.cfg.LminPct > 0 {
				c.Filtered = true
			}
			continue
		}
		c.NormLen = float64(c.ReasoningTokens-minL) / float64(span)
		if c.NormLen <= p.cfg.LminPct || c.NormLen >= p.cfg.LmaxPct {
			c.Filtered = true
		} else {
			kept++
		}
	}
	if kept == 0 || (kept < minFilteredPool && kept < len(lens)) {
		for i := range res.Candidates {
			res.Candidates[i].Filtered = false
		}
	}
	return nil
}

// rank simulates every usable candidate under the generated printing
// testbench and clusters by strict full-trace agreement, scoring clusters by
// size (the paper's Eq. 2-3). The work — dedup, concurrent simulation,
// clustering — lives in RankPool; rank maps the candidate pool in and
// attaches the aligned results back. Results are bit-identical for any
// worker count.
//
// Each run streams straight to a per-case fingerprint record: no trace
// string is ever built, and the only per-candidate retention is a handful of
// uint64s.
func (p *Pipeline) rank(ctx context.Context, res *Result) error {
	// Cached: every variant of a (task, run) pair re-derives this exact
	// stimulus, and it is read-only from here on.
	st := testbench.RankingCached(p.cfg.TBSeed+int64(res.Task.Index), p.cfg.TBImperfection, res.Task.Ifc)
	res.rankingStimulus = st

	srcs := make([]*ast.Source, len(res.Candidates))
	for i := range res.Candidates {
		c := &res.Candidates[i]
		if c.Valid && !c.Filtered {
			srcs[i] = c.Source
		}
	}
	pool, err := RankPool(ctx, srcs, st, RankPoolConfig{
		Backend: p.cfg.Backend,
		Workers: p.cfg.Workers,
	})
	if err != nil {
		return err
	}
	for i := range res.Candidates {
		if srcs[i] != nil {
			res.Candidates[i].FPTrace = pool.FPs[i]
		}
	}
	res.Stats.SimRuns += pool.UniqueJobs
	res.Clusters = pool.Clusters
	return nil
}

// refine implements post-ranking refinement: intra-cluster reconciliation on
// the top clusters, and inter-cluster divergence resolution (output judging
// on simple-description tasks, focused refinement otherwise). Early exit
// skips inter-cluster work when the top cluster dominates.
func (p *Pipeline) refine(ctx context.Context, res *Result) error {
	ranked := 0
	for _, cl := range res.Clusters {
		ranked += cl.Score
	}
	if ranked == 0 {
		return nil
	}
	top := res.Clusters[0]
	dominant := float64(top.Score) >= p.cfg.EarlyExitFrac*float64(ranked)
	res.EarlyExit = dominant

	k := p.cfg.TopClusters
	if k > len(res.Clusters) {
		k = len(res.Clusters)
	}
	if dominant {
		k = 1 // early exit: intra-cluster only, on the dominant cluster
	}

	// Intra-cluster: reconcile two samples of each top cluster.
	for ci := 0; ci < k; ci++ {
		if err := p.refineIntra(ctx, res, ci); err != nil {
			return err
		}
	}

	// Inter-cluster: resolve the top-1 vs top-2 divergence.
	if !dominant && len(res.Clusters) >= 2 {
		if err := p.refineInter(ctx, res); err != nil {
			return err
		}
	}
	return nil
}

// refineIntra asks the model to reconcile two implementations from one
// cluster. The refined candidate is accepted into the pool only if it stays
// behaviorally close to its source cluster (it is meant to fix what the
// imperfect testbench under-covers, not to change covered behavior).
func (p *Pipeline) refineIntra(ctx context.Context, res *Result, ci int) error {
	cl := &res.Clusters[ci]
	rng := p.rngFor(res.Task.ID, fmt.Sprintf("intra-%d", ci))
	a := cl.Members[rng.Intn(len(cl.Members))]
	b := cl.Members[rng.Intn(len(cl.Members))]
	if len(cl.Members) > 1 {
		for b == a {
			b = cl.Members[rng.Intn(len(cl.Members))]
		}
	}
	resp, err := withLLMRetry(ctx, p, func(t int) (llm.Response, error) {
		return p.client.Refine(ctx, llm.RefineRequest{
			TaskID:      res.Task.ID,
			Spec:        res.Task.Spec,
			CandidateA:  res.Candidates[a].Code,
			CandidateB:  res.Candidates[b].Code,
			SampleIndex: ci + retrySampleStride*t,
		})
	})
	if err != nil {
		if errors.Is(err, ErrLLM) {
			return nil // refinement is best-effort; keep ranked result
		}
		return err
	}
	res.Stats.RefineCalls++
	return p.admitRefined(ctx, res, ci, resp.Code)
}

// repTrace returns a candidate's full printed ranking trace, simulating it
// on first use. Prompt construction is the only consumer of trace strings,
// and it only ever looks at the ≤TopClusters representatives — so those are
// the only candidates that ever pay for a printed trace.
func (p *Pipeline) repTrace(res *Result, idx int) *testbench.Trace {
	c := &res.Candidates[idx]
	if c.Trace == nil {
		c.Trace = testbench.RunBackend(c.Source, eval.TopModule, res.rankingStimulus, p.cfg.Backend)
		res.Stats.SimRuns++
	}
	return c.Trace
}

// refineInter resolves the divergence between the top two clusters. For
// simple-description tasks with small outputs the model judges the expected
// output on the first disagreeing test case and its vote can overturn the
// majority; otherwise it falls back to focused cross-cluster refinement.
func (p *Pipeline) refineInter(ctx context.Context, res *Result) error {
	c0, c1 := &res.Clusters[0], &res.Clusters[1]
	rep0 := &res.Candidates[c0.Members[0]]
	rep1 := &res.Candidates[c1.Members[0]]
	caseIdx := -1
	for i := 0; i < rep0.FPTrace.NumCases(); i++ {
		if !testbench.FPCaseAgrees(rep0.FPTrace, rep1.FPTrace, i) {
			caseIdx = i
			break
		}
	}
	if caseIdx < 0 {
		return nil // identical traces should have been one cluster
	}

	outBits := 0
	for _, o := range res.Task.Ifc.Outputs {
		outBits += o.Width
	}
	if res.Task.SimpleDesc && outBits <= 8 {
		st := res.rankingStimulus
		resp, err := withLLMRetry(ctx, p, func(t int) (llm.JudgeResponse, error) {
			return p.client.JudgeOutput(ctx, llm.JudgeRequest{
				TaskID:      res.Task.ID,
				Spec:        res.Task.Spec,
				Case:        st.Case(caseIdx),
				SampleIndex: retrySampleStride * t,
			})
		})
		if err != nil {
			if errors.Is(err, ErrLLM) {
				return nil
			}
			return err
		}
		res.Stats.JudgeCalls++
		res.JudgeVoted = true
		pred := resp.Predicted.Fingerprint()
		match0 := rep0.FPTrace.CaseFPs[caseIdx] == pred
		match1 := rep1.FPTrace.CaseFPs[caseIdx] == pred
		// A judge vote for the runner-up overturns the majority when the
		// clusters are close; a vote for the leader reinforces it.
		if match1 && !match0 && float64(c1.Score) >= 0.5*float64(c0.Score) {
			res.Clusters[0], res.Clusters[1] = res.Clusters[1], res.Clusters[0]
		}
		return nil
	}

	// Fallback: focused refinement across the two clusters. Only here do
	// printed traces exist at all (the prompt quotes the disagreeing
	// outputs), and only for the two representatives.
	t0 := p.repTrace(res, c0.Members[0])
	t1 := p.repTrace(res, c1.Members[0])
	hint := divergenceHint(res.Task, t0, t1, caseIdx)
	rng := p.rngFor(res.Task.ID, "inter")
	a := c0.Members[rng.Intn(len(c0.Members))]
	b := c1.Members[rng.Intn(len(c1.Members))]
	resp, err := withLLMRetry(ctx, p, func(t int) (llm.Response, error) {
		return p.client.Refine(ctx, llm.RefineRequest{
			TaskID:      res.Task.ID,
			Spec:        res.Task.Spec,
			CandidateA:  res.Candidates[a].Code,
			CandidateB:  res.Candidates[b].Code,
			FocusHint:   hint,
			SampleIndex: 100 + retrySampleStride*t,
		})
	})
	if err != nil {
		if errors.Is(err, ErrLLM) {
			return nil
		}
		return err
	}
	res.Stats.RefineCalls++
	return p.admitRefinedInter(ctx, res, resp.Code)
}

// divergenceHint renders the concrete disagreement for the focused prompt.
func divergenceHint(task eval.Task, t0, t1 *testbench.Trace, caseIdx int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "On test case %d the top candidate groups disagree.\n", caseIdx)
	if caseIdx < len(t0.Cases) && caseIdx < len(t1.Cases) {
		fmt.Fprintf(&b, "Group A prints:\n")
		writeCase(&b, task, &t0.Cases[caseIdx])
		fmt.Fprintf(&b, "Group B prints:\n")
		writeCase(&b, task, &t1.Cases[caseIdx])
	}
	b.WriteString("Reason carefully about which behavior the specification requires.")
	return b.String()
}

func writeCase(b *strings.Builder, task eval.Task, ct *testbench.CaseTrace) {
	for si, s := range ct.Steps {
		fmt.Fprintf(b, "  step %d:", si)
		for oi, o := range s.Outputs {
			name := "?"
			if oi < len(task.Ifc.Outputs) {
				name = task.Ifc.Outputs[oi].Name
			}
			fmt.Fprintf(b, " %s=%s", name, o)
		}
		b.WriteByte('\n')
	}
}

// simulateRefined fingerprints a refined candidate under the ranking
// stimulus and returns it ready for agreement checks.
func (p *Pipeline) simulateRefined(ctx context.Context, res *Result, code string, src *ast.Source) (Candidate, error) {
	cand := Candidate{Code: code, Source: src, Valid: true, NormLen: -1, Refined: true}
	fps, err := testbench.RunFingerprints(ctx, []*ast.Source{src}, eval.TopModule, res.rankingStimulus, p.cfg.Backend)
	if err != nil {
		return cand, err
	}
	cand.FPTrace = fps[0]
	res.Stats.SimRuns++
	return cand, nil
}

// admitRefined validates and simulates a refined candidate for cluster ci.
// Intra-cluster refinement exists to repair behavior the imperfect ranking
// testbench does NOT cover, so a trustworthy refined candidate must agree
// with its source cluster on every covered test case: any covered-case
// divergence means the model wandered off and the candidate is rejected.
func (p *Pipeline) admitRefined(ctx context.Context, res *Result, ci int, code string) error {
	src, ok := ValidateCandidate(code)
	if !ok {
		return nil
	}
	cand, err := p.simulateRefined(ctx, res, code, src)
	if err != nil || cand.FPTrace.Err != nil {
		return err
	}
	ref := res.Candidates[res.Clusters[ci].Members[0]].FPTrace
	for i := 0; i < res.rankingStimulus.NumCases(); i++ {
		if !testbench.FPCaseAgrees(cand.FPTrace, ref, i) {
			return nil // covered-case divergence: distrust the rewrite
		}
	}
	idx := len(res.Candidates)
	cand.Index = idx
	res.Candidates = append(res.Candidates, cand)
	res.Clusters[ci].RefinedIdx = append(res.Clusters[ci].RefinedIdx, idx)
	return nil
}

// admitRefinedInter handles the cross-cluster refined candidate: it joins
// whichever top cluster it agrees with and boosts that cluster's score by
// one (it is one more independent, focused opinion).
func (p *Pipeline) admitRefinedInter(ctx context.Context, res *Result, code string) error {
	src, ok := ValidateCandidate(code)
	if !ok {
		return nil
	}
	cand, err := p.simulateRefined(ctx, res, code, src)
	if err != nil || cand.FPTrace.Err != nil {
		return err
	}
	idx := len(res.Candidates)
	added := false
	k := p.cfg.TopClusters
	if k > len(res.Clusters) {
		k = len(res.Clusters)
	}
	for ci := 0; ci < k; ci++ {
		ref := res.Candidates[res.Clusters[ci].Members[0]].FPTrace
		if testbench.FPAgrees(cand.FPTrace, ref) {
			res.Clusters[ci].Score++
			res.Clusters[ci].RefinedIdx = append(res.Clusters[ci].RefinedIdx, idx)
			added = true
			break
		}
	}
	if !added {
		return nil // agrees with neither top cluster: discard
	}
	cand.Index = idx
	res.Candidates = append(res.Candidates, cand)
	// Re-sort in case the boost changed the order.
	sort.SliceStable(res.Clusters, func(a, b int) bool {
		return res.Clusters[a].Score > res.Clusters[b].Score
	})
	return nil
}

// pickFinal selects the output: the top cluster's refined candidate when one
// was admitted, otherwise a random member of the top cluster, otherwise any
// valid candidate, otherwise the raw first sample.
func (p *Pipeline) pickFinal(res *Result) {
	if len(res.Clusters) > 0 {
		top := res.Clusters[0]
		if len(top.RefinedIdx) > 0 {
			idx := top.RefinedIdx[len(top.RefinedIdx)-1]
			res.Final = res.Candidates[idx].Code
			res.FinalIndex = idx
			res.RefinedUsed = true
			return
		}
		rng := p.rngFor(res.Task.ID, "pick")
		idx := top.Members[rng.Intn(len(top.Members))]
		res.Final = res.Candidates[idx].Code
		res.FinalIndex = idx
		return
	}
	for i := range res.Candidates {
		if res.Candidates[i].Valid {
			res.Final = res.Candidates[i].Code
			res.FinalIndex = i
			return
		}
	}
	if len(res.Candidates) > 0 {
		res.Final = res.Candidates[0].Code
		res.FinalIndex = 0
	}
}
