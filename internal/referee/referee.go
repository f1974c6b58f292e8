// Package referee ranks and verifies candidates the slow, independent way:
// every candidate runs solo under testbench.RunBackend, which prints its
// full trace, and agreement is decided on the printed strings. It shares no
// fingerprint memo, result store or gang plan with production ranking,
// so tests use it to referee the streaming fingerprint path. Only tests
// import it.
package referee

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/testbench"
	"repro/internal/verilog/ast"
)

// Cluster is one group of candidates whose printed traces agree on every
// case. Members index the ranked pool in ascending order; their count is
// the cluster's score.
type Cluster struct {
	Fingerprint uint64
	Members     []int
}

// Ranking is a pool ranked from solo printed traces.
type Ranking struct {
	// Traces holds each candidate's printed trace, aligned with the pool;
	// nil sources have nil traces.
	Traces []*testbench.Trace
	// Clusters groups the candidates that ran clean by whole-trace
	// fingerprint, ordered by score (cluster size) descending, then
	// fingerprint ascending. A candidate whose run failed joins none.
	Clusters []Cluster
}

// Rank simulates every non-nil source of srcs solo under st and clusters
// them by strict full-trace agreement.
func Rank(srcs []*ast.Source, top string, st *testbench.Stimulus, backend testbench.Backend) *Ranking {
	r := &Ranking{Traces: make([]*testbench.Trace, len(srcs))}
	byFP := make(map[uint64]int)
	for i, src := range srcs {
		if src == nil {
			continue
		}
		tr := testbench.RunBackend(src, top, st, backend)
		r.Traces[i] = tr
		if tr.Err != nil {
			continue
		}
		fp := tr.Fingerprint()
		c, ok := byFP[fp]
		if !ok {
			c = len(r.Clusters)
			byFP[fp] = c
			r.Clusters = append(r.Clusters, Cluster{Fingerprint: fp})
		}
		r.Clusters[c].Members = append(r.Clusters[c].Members, i)
	}
	sort.Slice(r.Clusters, func(a, b int) bool {
		ca, cb := r.Clusters[a], r.Clusters[b]
		if len(ca.Members) != len(cb.Members) {
			return len(ca.Members) > len(cb.Members)
		}
		return ca.Fingerprint < cb.Fingerprint
	})
	return r
}

// CheckTrace reports how a production fingerprint record of candidate i
// differs from the referee's printed trace of it: a different error, or any
// per-case fingerprint that differs from the printed case's.
func (r *Ranking) CheckTrace(i int, got *testbench.FPTrace) error {
	want := r.Traces[i]
	if want == nil || got == nil {
		if (want == nil) != (got == nil) {
			return fmt.Errorf("candidate %d: referee trace present %v, production trace present %v", i, want != nil, got != nil)
		}
		return nil
	}
	if errText(got.Err) != errText(want.Err) {
		return fmt.Errorf("candidate %d: error %q, referee %q", i, errText(got.Err), errText(want.Err))
	}
	if wantFPs := want.FP().CaseFPs; !slices.Equal(got.CaseFPs, wantFPs) {
		return fmt.Errorf("candidate %d: case fingerprints %x, referee %x", i, got.CaseFPs, wantFPs)
	}
	return nil
}

// CheckClusters reports how a production clustering differs from the
// referee's: every production cluster must be a referee cluster with the
// same fingerprint and members, and the two must have as many clusters.
// Order is not compared, so callers whose clusters were re-ordered after
// ranking (refinement boosts scores) can check them too.
func (r *Ranking) CheckClusters(got []Cluster) error {
	if len(got) != len(r.Clusters) {
		return fmt.Errorf("%d clusters, referee %d", len(got), len(r.Clusters))
	}
	for _, cl := range got {
		k := slices.IndexFunc(r.Clusters, func(c Cluster) bool { return c.Fingerprint == cl.Fingerprint })
		if k < 0 {
			return fmt.Errorf("cluster %016x %v: the referee has no cluster with that fingerprint", cl.Fingerprint, cl.Members)
		}
		if !slices.Equal(cl.Members, r.Clusters[k].Members) {
			return fmt.Errorf("cluster %016x: members %v, referee %v", cl.Fingerprint, cl.Members, r.Clusters[k].Members)
		}
	}
	return nil
}

// Verify reports for each source whether it agrees with golden on every
// case of st, comparing solo printed traces with testbench.Agrees. A nil
// source fails. It returns an error if the golden itself does not run clean.
func Verify(srcs []*ast.Source, golden *ast.Source, top string, st *testbench.Stimulus, backend testbench.Backend) ([]bool, error) {
	gt := testbench.RunBackend(golden, top, st, backend)
	if gt.Err != nil {
		return nil, fmt.Errorf("referee: golden simulation: %w", gt.Err)
	}
	out := make([]bool, len(srcs))
	for i, src := range srcs {
		if src == nil {
			continue
		}
		tr := testbench.RunBackend(src, top, st, backend)
		out[i] = tr.Err == nil && testbench.Agrees(tr, gt)
	}
	return out, nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
