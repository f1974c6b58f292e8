package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/serve/faultinject"
	"repro/internal/sim"
	"repro/internal/testbench"
	"repro/internal/verilog/ast"
)

// gatePool parses a pool of two-input gate candidates for cmb_gate_00_and2:
// the golden AND, an OR mutant, an XOR mutant, a duplicate of the OR mutant
// (dedup must coalesce it), and a nil slot standing in for an invalid
// candidate. Returns (task, golden, srcs).
func gatePool(t *testing.T) (eval.Task, *ast.Source, []*ast.Source) {
	t.Helper()
	task := pickTask(t, "cmb_gate_00_and2")
	exprs := []string{"a & b", "a | b", "a ^ b", "a | b"}
	srcs := make([]*ast.Source, 0, len(exprs)+1)
	for _, e := range exprs {
		src, err := eval.ParseCached("module top_module(\n    input a,\n    input b,\n    output y\n);\n    assign y = " + e + ";\nendmodule\n")
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	srcs = append(srcs, nil)
	golden, err := eval.ParseCached(task.Golden)
	if err != nil {
		t.Fatal(err)
	}
	return task, golden, srcs
}

// clusterMembers flattens clusters to their member index sets, dropping the
// fingerprints — the representation-independent part two ranking paths must
// agree on.
func clusterMembers(cls []Cluster) [][]int {
	out := make([][]int, len(cls))
	for i, cl := range cls {
		out[i] = cl.Members
	}
	return out
}

// TestRankPoolPanicConfinedToCandidate injects a sticky simulator crash
// into one candidate of a worker-pool rank (satellite 3): the panicking
// candidate must come back with its own ErrSimPanic, every other candidate
// must be bit-identical to a clean run, and after disarming, re-running the
// pool is bit-identical to a never-faulted run.
func TestRankPoolPanicConfinedToCandidate(t *testing.T) {
	defer faultinject.Reset()
	task, golden, srcs := gatePool(t)
	st := testbench.RankingCached(9101, 0, task.Ifc)
	cfg := RankPoolConfig{Backend: testbench.BackendCompiled, Workers: 3, Golden: golden}

	// srcs[2] is the XOR mutant. The arm is sticky: every run of it crashes
	// until the reset below.
	faultinject.ArmFrom(faultinject.PointSimCase, sim.CanonicalKey(srcs[2]), 1, func() {
		panic("injected simulator crash")
	})
	faulted, err := RankPool(context.Background(), srcs, st, cfg)
	if err != nil {
		t.Fatalf("faulted RankPool returned pool-level error: %v", err)
	}
	if faulted.FPs[2] == nil || faulted.FPs[2].Err == nil || !errors.Is(faulted.FPs[2].Err, testbench.ErrSimPanic) {
		t.Fatalf("victim FPs[2] = %+v, want ErrSimPanic", faulted.FPs[2])
	}
	if faulted.FPs[4] != nil {
		t.Fatalf("nil source got a trace: %+v", faulted.FPs[4])
	}

	faultinject.Reset()
	clean, err := RankPool(context.Background(), srcs, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 3} {
		f, c := faulted.FPs[i], clean.FPs[i]
		if f.Err != nil || c.Err != nil {
			t.Fatalf("survivor %d errored: faulted=%v clean=%v", i, f.Err, c.Err)
		}
		if f.Fingerprint() != c.Fingerprint() || !reflect.DeepEqual(f.CaseFPs, c.CaseFPs) {
			t.Fatalf("survivor %d diverged between faulted and clean runs", i)
		}
	}
	if clean.FPs[2].Err != nil {
		t.Fatalf("victim still failing after disarm: %v", clean.FPs[2].Err)
	}
	// Clean clusters: {1,3} (the duplicated OR) first, then {0} and {2} in
	// fingerprint order; the faulted run must be the same minus the victim.
	cm := clusterMembers(clean.Clusters)
	if len(cm) != 3 || !reflect.DeepEqual(cm[0], []int{1, 3}) ||
		!(reflect.DeepEqual(cm[1], []int{0}) || reflect.DeepEqual(cm[2], []int{0})) ||
		!(reflect.DeepEqual(cm[1], []int{2}) || reflect.DeepEqual(cm[2], []int{2})) {
		t.Fatalf("clean clusters = %v, want [[1 3] [0] [2]] (singletons in either order)", cm)
	}
	if want := [][]int{{1, 3}, {0}}; !reflect.DeepEqual(clusterMembers(faulted.Clusters), want) {
		t.Fatalf("faulted clusters = %v, want %v", clusterMembers(faulted.Clusters), want)
	}
	if clean.UniqueJobs != 3 {
		t.Fatalf("UniqueJobs = %d, want 3 (OR duplicate must dedup)", clean.UniqueJobs)
	}
}

// TestRankPoolCancelLeavesCachesReusable cancels a rank mid-flight (at the
// second simulation unit) and then re-runs the identical pool twice: the
// cancel must surface as the context error, and the aborted run must leave
// every process-wide memo reusable, with the re-runs bit-identical to each
// other AND agreeing with the independent printed-trace referee, which
// shares none of the fingerprint memos.
func TestRankPoolCancelLeavesCachesReusable(t *testing.T) {
	defer faultinject.Reset()
	task, golden, _ := gatePool(t)
	srcs := gateExprs(t, gateExprPool)
	st := testbench.RankingCached(9103, 0, task.Ifc)
	cfg := RankPoolConfig{Backend: testbench.BackendCompiled, Workers: 1, Golden: golden}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Arm(faultinject.PointRankBatch, "", 2, cancel)
	if _, err := RankPool(ctx, srcs, st, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RankPool err = %v, want context.Canceled", err)
	}

	faultinject.Reset()
	first, err := RankPool(context.Background(), srcs, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RankPool(context.Background(), srcs, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Clusters, second.Clusters) {
		t.Fatalf("post-cancel re-runs diverged:\n%v\nvs\n%v", first.Clusters, second.Clusters)
	}
	for i := range srcs {
		if first.FPs[i].Err != nil || first.FPs[i].Fingerprint() != second.FPs[i].Fingerprint() {
			t.Fatalf("candidate %d not bit-identical across post-cancel re-runs", i)
		}
	}

	// Independent referee: solo printed traces re-simulate from scratch (no
	// fingerprint memo), so agreement here rules out a stale or poisoned
	// memo entry surviving the cancel.
	checkRankPool(t, "post-cancel", srcs, st, testbench.BackendCompiled, first)
}

// TestRankPoolDeterministicAcrossWorkers: identical pools ranked with
// different worker counts must produce identical clusters, and OnBatch
// progress must be serialized and monotonic up to completion, one call per
// rank unit.
func TestRankPoolDeterministicAcrossWorkers(t *testing.T) {
	task, golden, pool := gatePool(t)
	srcs := append(gateExprs(t, gateExprPool), pool...)
	st := testbench.RankingCached(9107, 0, task.Ifc)

	var ref *RankPoolResult
	for _, w := range []int{1, 2, 4} {
		var progress []int
		res, err := RankPool(context.Background(), srcs, st, RankPoolConfig{
			Backend: testbench.BackendCompiled, Workers: w, Golden: golden,
			OnBatch: func(done, total int) { progress = append(progress, done, total) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
		} else if !reflect.DeepEqual(res.Clusters, ref.Clusters) {
			t.Fatalf("workers=%d clusters diverged: %v vs %v", w, res.Clusters, ref.Clusters)
		}
		nUnits := (res.UniqueJobs + rankUnit - 1) / rankUnit
		if nUnits < 2 {
			t.Fatalf("premise: %d unique jobs make %d rank unit(s), want several", res.UniqueJobs, nUnits)
		}
		if len(progress) != 2*nUnits {
			t.Fatalf("workers=%d: %d OnBatch calls, want %d", w, len(progress)/2, nUnits)
		}
		for u := 0; u < nUnits; u++ {
			if progress[2*u] != u+1 || progress[2*u+1] != nUnits {
				t.Fatalf("workers=%d: OnBatch call %d = (%d,%d), want (%d,%d)",
					w, u, progress[2*u], progress[2*u+1], u+1, nUnits)
			}
		}
	}
}

// TestRankPoolBatchPanicReleasesClaims crashes the second rank unit before
// it runs. Its jobs were claimed when the call started, so the last-line
// recovery must release those claims: the unit's candidates come back with
// ErrSimPanic, every other candidate is clean, and a re-run of the pool is
// not left waiting on a claim nobody will resolve.
func TestRankPoolBatchPanicReleasesClaims(t *testing.T) {
	defer faultinject.Reset()
	task, golden, _ := gatePool(t)
	srcs := gateExprs(t, gateExprPool)
	const seed = 9115
	cfg := RankPoolConfig{Backend: testbench.BackendCompiled, Workers: 1, Golden: golden}
	clean, err := RankPool(context.Background(), srcs, freshStimulus(task, seed), cfg)
	if err != nil {
		t.Fatal(err)
	}

	st := freshStimulus(task, seed)
	faultinject.Arm(faultinject.PointRankBatch, "", 2, func() { panic("injected batch crash") })
	faulted, err := RankPool(context.Background(), srcs, st, cfg)
	if err != nil {
		t.Fatalf("faulted RankPool returned pool-level error: %v", err)
	}
	crashed := 0
	for i, fp := range faulted.FPs {
		switch {
		case fp.Err != nil && errors.Is(fp.Err, testbench.ErrSimPanic):
			crashed++
		case fp.Err != nil || fp.Fingerprint() != clean.FPs[i].Fingerprint():
			t.Fatalf("candidate %d outside the crashed batch diverged: %v", i, fp.Err)
		}
	}
	if crashed != rankUnit {
		t.Fatalf("%d candidates crashed, want the unit's %d", crashed, rankUnit)
	}

	faultinject.Reset()
	done := make(chan *RankPoolResult, 1)
	go func() {
		res, err := RankPool(context.Background(), srcs, st, cfg)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res != nil && !reflect.DeepEqual(res.Clusters, clean.Clusters) {
			t.Fatalf("re-run clusters %v, want %v", res.Clusters, clean.Clusters)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("re-run after a crashed batch waited on a leaked claim")
	}
}
