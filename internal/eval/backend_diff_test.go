package eval

import (
	"context"
	"testing"

	"repro/internal/testbench"
	"repro/internal/verilog/ast"
	"repro/internal/verilog/parser"
)

// TestSuiteGoldensBackendEquivalence runs every golden design in the
// 156-task benchmark through both simulation backends under the same
// generated stimulus and requires byte-identical printed traces. This pins
// the compiled backend to the interpreter across every construct the
// benchmark exercises (gates, muxes, k-maps, wide vectors, adders,
// counters, shift registers, FSMs, ...).
func TestSuiteGoldensBackendEquivalence(t *testing.T) {
	for _, task := range Suite() {
		src, err := parser.Parse(task.Golden)
		if err != nil {
			t.Fatalf("%s: golden parse: %v", task.ID, err)
		}
		st := testbench.NewGenerator(9 + int64(task.Index)).Ranking(task.Ifc)
		ti := testbench.RunBackend(src, TopModule, st, testbench.BackendInterpreter)
		tc := testbench.RunBackend(src, TopModule, st, testbench.BackendCompiled)
		if (ti.Err == nil) != (tc.Err == nil) {
			t.Fatalf("%s: error divergence: interp=%v compiled=%v", task.ID, ti.Err, tc.Err)
		}
		if ti.Err != nil {
			t.Fatalf("%s: golden failed to simulate: %v", task.ID, ti.Err)
		}
		if got, want := tc.String(), ti.String(); got != want {
			t.Errorf("%s: trace divergence\ninterpreter:\n%s\ncompiled:\n%s", task.ID, want, got)
		}
		// The streaming fingerprint path must reproduce the printed-trace
		// fingerprints exactly — per case and whole-run — on both backends.
		for _, pair := range []struct {
			name    string
			tr      *testbench.Trace
			backend testbench.Backend
		}{
			{"interpreter", ti, testbench.BackendInterpreter},
			{"compiled", tc, testbench.BackendCompiled},
		} {
			fps, err := testbench.RunFingerprints(context.Background(), []*ast.Source{src}, TopModule, st, pair.backend)
			if err != nil {
				t.Fatal(err)
			}
			fp := fps[0]
			if fp.Err != nil {
				t.Fatalf("%s: %s fingerprint run failed: %v", task.ID, pair.name, fp.Err)
			}
			if !testbench.FPAgrees(fp, pair.tr.FP()) || fp.Fingerprint() != pair.tr.Fingerprint() {
				t.Errorf("%s: %s fingerprint path diverges from printed trace", task.ID, pair.name)
			}
		}
	}
}
