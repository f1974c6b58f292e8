package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/eval"
	"repro/internal/sim"
	"repro/internal/testbench"
	"repro/internal/verilog/ast"
)

// TestNormalKeyRespectsBinding ranks two candidates whose normal forms
// agree but which the testbench binds differently: both declare the
// interface output y only as an internal net, under different spellings,
// and the testbench resolves y against every top-level net. A's y is its
// internal net and B has none, so their solo traces differ; every
// candidate's ranked and memoized trace must equal its solo run, in either
// pool order.
func TestNormalKeyRespectsBinding(t *testing.T) {
	task := pickTask(t, "cmb_gate_00_and2")
	golden, err := eval.ParseCached(task.Golden)
	if err != nil {
		t.Fatal(err)
	}
	parse := func(code string) *ast.Source {
		src, ok := ValidateCandidate(code)
		if !ok {
			t.Fatalf("candidate is not valid:\n%s", code)
		}
		return src
	}
	a := parse("module top_module(input a, input b, output z); wire y; assign y = a & b; assign z = y; endmodule\n")
	b := parse("module top_module(input a, input b, output z); wire y_r; assign y_r = a & b; assign z = y_r; endmodule\n")
	if sim.NormalKey(a) != sim.NormalKey(b) {
		t.Fatal("premise: A and B should share a NormalKey")
	}
	if testbench.DesignKey(golden, eval.TopModule, &task.Ifc) != sim.NormalKey(golden) {
		t.Fatal("a candidate whose ports bind the interface must keep its NormalKey")
	}

	const seed = 9131
	solo := map[*ast.Source]*testbench.FPTrace{}
	for _, src := range []*ast.Source{a, b} {
		solo[src] = fingerprintOne(t, src, freshStimulus(task, seed))
	}
	if solo[a].Err != nil || solo[b].Err == nil {
		t.Fatalf("premise: A's solo run should be clean (err %v) and B's should fail (err %v)", solo[a].Err, solo[b].Err)
	}

	for _, pool := range [][]*ast.Source{{a, b}, {b, a}} {
		st := freshStimulus(task, seed)
		res, err := RankPool(context.Background(), pool, st, RankPoolConfig{Backend: testbench.BackendCompiled, Golden: golden})
		if err != nil {
			t.Fatal(err)
		}
		// B's run fails, and a failed run joins no cluster: A ranks alone.
		if res.UniqueJobs != 2 || len(res.Clusters) != 1 || len(res.Clusters[0].Members) != 1 || pool[res.Clusters[0].Members[0]] != a {
			t.Errorf("ranked: %d unique jobs in clusters %v, want 2 with A alone", res.UniqueJobs, clusterMembers(res.Clusters))
		}
		for i, src := range pool {
			if got, want := res.FPs[i], solo[src]; !sameTrace(got, want) {
				t.Errorf("ranked candidate %d: fingerprint %016x (err %v), want its solo %016x (err %v)", i, got.Fingerprint(), got.Err, want.Fingerprint(), want.Err)
			}
		}
		// The fingerprint memo, which also keys the store, must keep them
		// apart on its own.
		st = freshStimulus(task, seed)
		for i, src := range pool {
			if got, want := fingerprintOne(t, src, st), solo[src]; !sameTrace(got, want) {
				t.Errorf("memoized candidate %d: fingerprint %016x (err %v), want its solo %016x (err %v)", i, got.Fingerprint(), got.Err, want.Fingerprint(), want.Err)
			}
		}
	}
}

// fingerprintOne runs src alone through testbench.RunFingerprints on the
// compiled backend.
func fingerprintOne(t *testing.T, src *ast.Source, st *testbench.Stimulus) *testbench.FPTrace {
	t.Helper()
	out, err := testbench.RunFingerprints(context.Background(), []*ast.Source{src}, eval.TopModule, st, testbench.BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	return out[0]
}

// sameTrace reports whether two fingerprint traces record the same run.
func sameTrace(a, b *testbench.FPTrace) bool {
	return a.Fingerprint() == b.Fingerprint() && fmt.Sprint(a.Err) == fmt.Sprint(b.Err)
}
