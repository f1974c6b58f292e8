package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/testbench"
	"repro/internal/verilog/ast"
)

// pinnedRankPoolClusters is the SHA-256 over the clusters of the first
// pinnedPools daemon-cold jobs at bench seed 1. A change to it must say in
// CHANGES.md why the ranking changed.
const pinnedRankPoolClusters = "a6a62c826c2744a4b52500ce20f508004ccf0f7784c3c677e7810324fd37a439"

// The daemon-cold workload's job shape (bench/daemon.go): every 7th suite
// task, 30 qwq-32b completions per (task, seed) pool, seeds
// benchSeed*1e6 + d/len(tasks).
const (
	pinnedPools    = 50
	pinnedPoolSize = 30
	pinnedStride   = 7
	pinnedBench    = 1
)

// TestRankPoolClustersPinned ranks the first 50 daemon-cold pools the way
// vfocusd does for a job with an explicit pool (validate each candidate,
// rank on the task's ranking stimulus anchored on the golden) and compares
// one digest over every job's (fingerprint, score, members) against its
// pinned value. The clusters must not depend on cache state, so the pools
// are ranked three times: cold, again with every candidate a fingerprint
// memo hit, and again with the memo cut to one entry.
func TestRankPoolClustersPinned(t *testing.T) {
	check := func(pass string) {
		if got := rankPoolDigest(t); got != pinnedRankPoolClusters {
			t.Errorf("%s: cluster digest = %s, want %s", pass, got, pinnedRankPoolClusters)
		}
	}
	check("cold")
	sims := testbench.ReadStoreStats().Sims
	check("memo-warm")
	if n := testbench.ReadStoreStats().Sims - sims; n != 0 {
		t.Errorf("memo-warm pass simulated %d candidates, want 0", n)
	}
	defer testbench.SetFPMemoCap(testbench.SetFPMemoCap(1))
	check("memo cap 1")
}

// rankPoolDigest ranks the pinned pools and returns the digest of their
// clusters.
func rankPoolDigest(t *testing.T) string {
	t.Helper()
	suite := eval.Suite()
	var tasks []int
	for i := 0; i < eval.SuiteSize; i += pinnedStride {
		tasks = append(tasks, i)
	}
	profile, err := llm.ProfileByName("qwq-32b")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	h := sha256.New()
	for d := 0; d < pinnedPools; d++ {
		task := suite[tasks[d%len(tasks)]]
		seed := pinnedBench*1_000_000 + int64(d/len(tasks))
		client, err := llm.NewSimClient(profile, seed, []eval.Task{task})
		if err != nil {
			t.Fatal(err)
		}
		var srcs []*ast.Source
		for i := 0; i < pinnedPoolSize; i++ {
			resp, err := client.Generate(ctx, llm.GenerateRequest{TaskID: task.ID, Spec: task.Spec, SampleIndex: i})
			if errors.Is(err, llm.ErrTransient) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			var src *ast.Source // invalid candidates keep their index, as nil
			if v, ok := ValidateCandidate(resp.Code); ok {
				src = v
			}
			srcs = append(srcs, src)
		}
		golden, err := eval.ParseCached(task.Golden)
		if err != nil {
			t.Fatal(err)
		}
		st := testbench.RankingCached(seed+int64(task.Index), 0, task.Ifc)
		res, err := RankPool(ctx, srcs, st, RankPoolConfig{Golden: golden})
		if err != nil {
			t.Fatalf("job %d: %v", d, err)
		}
		fmt.Fprintf(h, "job %d %s %d\n", d, task.ID, seed)
		for _, cl := range res.Clusters {
			fmt.Fprintf(h, "%016x %d %v\n", cl.Fingerprint, cl.Score, cl.Members)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
