package exp

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/eval"
	"repro/internal/testbench"
)

// TestTable1BackendEquivalence runs a reduced Table I once per backend and
// requires identical rows: the compiled engine must not change a single
// pipeline decision (clustering, refinement admission, final pick,
// verification verdicts) relative to the interpreter.
func TestTable1BackendEquivalence(t *testing.T) {
	all := eval.Suite()
	var tasks []eval.Task
	for i := 0; i < len(all); i += 24 {
		tasks = append(tasks, all[i])
	}
	run := func(b testbench.Backend) []Table1Row {
		res, err := RunTable1(context.Background(), Table1Config{
			Models:  []string{"qwq-32b"},
			Tasks:   tasks,
			Samples: 10,
			Runs:    1,
			Seed:    5,
			Backend: b,
		})
		if err != nil {
			t.Fatalf("backend %v: %v", b, err)
		}
		return res.Rows
	}
	ri := run(testbench.BackendInterpreter)
	rc := run(testbench.BackendCompiled)
	if !reflect.DeepEqual(ri, rc) {
		t.Fatalf("Table I rows diverge between backends\ninterpreter: %+v\ncompiled: %+v", ri, rc)
	}
}

// TestOracleBackendEquivalence checks that verification verdicts agree
// across backends, and with the solo printed-trace referee, for golden and
// deliberately wrong candidates.
func TestOracleBackendEquivalence(t *testing.T) {
	tasks := eval.Suite()[:6]
	oi := NewOracle(tasks, 3)
	oi.Backend = testbench.BackendInterpreter
	oc := NewOracle(tasks, 3)
	oc.Backend = testbench.BackendCompiled
	wrong := `
module top_module (input a, input b, output y);
    assign y = a & b;
endmodule
`
	for _, task := range tasks {
		codes := []string{task.Golden, wrong}
		ref := refereeVerdicts(t, task, 3, codes, testbench.BackendCompiled)
		for k, code := range codes {
			vi, err := oi.Verify(task.ID, code)
			if err != nil {
				t.Fatalf("%s: interp verify: %v", task.ID, err)
			}
			vc, err := oc.Verify(task.ID, code)
			if err != nil {
				t.Fatalf("%s: compiled verify: %v", task.ID, err)
			}
			if vi != vc {
				t.Errorf("%s: verdict divergence: interp=%v compiled=%v", task.ID, vi, vc)
			}
			if ref[k] != vc {
				t.Errorf("%s: verdict divergence: referee=%v fingerprint=%v", task.ID, ref[k], vc)
			}
		}
	}
}
