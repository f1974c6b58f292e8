package core

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/resultstore"
	"repro/internal/testbench"
	"repro/internal/verilog/ast"
)

// gateExprs parses one cmb_gate_00_and2 candidate per output expression.
func gateExprs(t *testing.T, exprs []string) []*ast.Source {
	t.Helper()
	srcs := make([]*ast.Source, len(exprs))
	for i, e := range exprs {
		src, err := eval.ParseCached("module top_module(\n    input a,\n    input b,\n    output y\n);\n    assign y = " + e + ";\nendmodule\n")
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = src
	}
	return srcs
}

// freshStimulus returns a copy of the (task, seed) ranking stimulus under a
// new pointer: the same content, so the same store keys, but a cold memo.
func freshStimulus(task eval.Task, seed int64) *testbench.Stimulus {
	st := testbench.RankingCached(seed, 0, task.Ifc)
	cases := make([]testbench.Case, st.NumCases())
	for ci := range cases {
		cases[ci] = st.Case(ci)
	}
	return &testbench.Stimulus{Ifc: st.Ifc, Cases: cases}
}

// countingStore counts Get calls through to the wrapped adapter.
type countingStore struct {
	resultstore.Store
	gets atomic.Int64
}

func (c *countingStore) Get(ctx context.Context, k resultstore.Key) ([]byte, bool, error) {
	c.gets.Add(1)
	return c.Store.Get(ctx, k)
}

// gateExprPool is sixteen distinct two-input gate designs: two rank units.
var gateExprPool = []string{
	"a & b", "a | b", "a ^ b", "~(a & b)", "~(a | b)", "~(a ^ b)", "a", "b",
	"~a", "~b", "a & ~b", "~a & b", "a | ~b", "~a | b", "1'b0", "1'b1",
}

// TestRankPoolStoreReadOnce ranks a pool whose store holds half of its
// results: every unique job's record is read exactly once — hits are not
// read again by a batch, and misses are not read again before simulating —
// and the clusters equal a cold run's.
func TestRankPoolStoreReadOnce(t *testing.T) {
	task, golden, _ := gatePool(t)
	srcs := gateExprs(t, gateExprPool)
	const seed = 9111
	for _, workers := range []int{1, 2} {
		cfg := RankPoolConfig{Backend: testbench.BackendCompiled, Workers: workers, Golden: golden}
		cold, err := RankPool(context.Background(), srcs, freshStimulus(task, seed), cfg)
		if err != nil {
			t.Fatal(err)
		}

		store := &countingStore{Store: resultstore.NewMemory(64)}
		prev := testbench.SetStore(store)
		half := len(srcs) / 2
		if _, err := RankPool(context.Background(), srcs[:half], freshStimulus(task, seed), cfg); err != nil {
			testbench.SetStore(prev)
			t.Fatal(err)
		}
		store.gets.Store(0)
		pre := testbench.ReadStoreStats()
		warm, err := RankPool(context.Background(), srcs, freshStimulus(task, seed), cfg)
		post := testbench.ReadStoreStats()
		testbench.SetStore(prev)
		if err != nil {
			t.Fatal(err)
		}

		if got := store.gets.Load(); got != int64(warm.UniqueJobs) {
			t.Errorf("workers=%d: %d store reads for %d unique jobs, want one each", workers, got, warm.UniqueJobs)
		}
		if hits := post.Hits - pre.Hits; hits != uint64(half) {
			t.Errorf("workers=%d: %d store hits, want %d", workers, hits, half)
		}
		if sims := post.Sims - pre.Sims; sims != uint64(warm.UniqueJobs-half) {
			t.Errorf("workers=%d: %d simulations, want %d", workers, sims, warm.UniqueJobs-half)
		}
		if !reflect.DeepEqual(warm.Clusters, cold.Clusters) {
			t.Fatalf("workers=%d: half-warm clusters %v, cold %v", workers, warm.Clusters, cold.Clusters)
		}
	}
}

// slowStore delays every Get, stretching each call's claim pass so that two
// concurrent calls interleave their claims.
type slowStore struct{ resultstore.Store }

func (s slowStore) Get(ctx context.Context, k resultstore.Key) ([]byte, bool, error) {
	time.Sleep(time.Millisecond)
	return s.Store.Get(ctx, k)
}

// TestRankPoolOverlappingPoolsNoDeadlock ranks two pools over the same
// candidates in opposite orders at once, under one memo-cold stimulus and
// one worker each: each call claims the jobs it reaches
// first and finds the rest claimed by the other. Neither may wait on the
// other while holding claims the other needs, and each result must equal
// its solo ranking. A slow store makes the two claim passes overlap.
func TestRankPoolOverlappingPoolsNoDeadlock(t *testing.T) {
	task, golden, _ := gatePool(t)
	fwd := gateExprs(t, gateExprPool)
	rev := make([]*ast.Source, len(fwd))
	for i, src := range fwd {
		rev[len(fwd)-1-i] = src
	}
	const seed = 9113
	cfg := RankPoolConfig{Backend: testbench.BackendCompiled, Workers: 1, Golden: golden}
	solo := make([]*RankPoolResult, 2)
	for k, pool := range [][]*ast.Source{fwd, rev} {
		res, err := RankPool(context.Background(), pool, freshStimulus(task, seed), cfg)
		if err != nil {
			t.Fatal(err)
		}
		solo[k] = res
	}

	prev := testbench.SetStore(slowStore{resultstore.NewMemory(64)})
	defer testbench.SetStore(prev)
	for round := 0; round < 10; round++ {
		// A fresh stimulus keeps the memo cold, and a fresh store per round
		// keeps every job a store miss that must be simulated.
		testbench.SetStore(slowStore{resultstore.NewMemory(64)})
		st := freshStimulus(task, seed)
		got := make([]*RankPoolResult, 2)
		errs := make([]error, 2)
		start := make(chan struct{})
		done := make(chan int, 2)
		for k, pool := range [][]*ast.Source{fwd, rev} {
			go func() {
				<-start
				got[k], errs[k] = RankPool(context.Background(), pool, st, cfg)
				done <- k
			}()
		}
		close(start)
		deadline := time.After(30 * time.Second)
		for n := 0; n < 2; n++ {
			select {
			case <-done:
			case <-deadline:
				t.Fatalf("round %d: overlapping RankPool calls deadlocked", round)
			}
		}
		for k := range got {
			if errs[k] != nil {
				t.Fatalf("round %d, pool %d: %v", round, k, errs[k])
			}
			if !reflect.DeepEqual(got[k].Clusters, solo[k].Clusters) {
				t.Fatalf("round %d, pool %d: clusters %v, solo %v", round, k, got[k].Clusters, solo[k].Clusters)
			}
		}
	}
}
