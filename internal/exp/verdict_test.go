package exp

import (
	"context"
	"testing"

	"repro/internal/eval"
	"repro/internal/mutate"
	"repro/internal/referee"
	"repro/internal/resultstore"
	"repro/internal/testbench"
	"repro/internal/verilog/ast"
	"repro/internal/verilog/parser"
	"repro/internal/verilog/printer"
	"repro/internal/xrng"
)

// refereeVerdicts verifies a pool of candidate texts for task the way the
// oracle seeded with seed does, but through referee.Verify: solo printed
// traces compared with the golden's, with no memo, plan or store.
func refereeVerdicts(t *testing.T, task eval.Task, seed int64, pool []string, backend testbench.Backend) []bool {
	t.Helper()
	golden, err := eval.ParseCached(task.Golden)
	if err != nil {
		t.Fatalf("%s: golden parse: %v", task.ID, err)
	}
	srcs := make([]*ast.Source, len(pool))
	for i, code := range pool {
		srcs[i] = mustParse(code)
	}
	st := testbench.VerificationCached(seed+int64(task.Index), task.Ifc)
	v, err := referee.Verify(srcs, golden, eval.TopModule, st, backend)
	if err != nil {
		t.Fatalf("%s: %v", task.ID, err)
	}
	return v
}

// TestVerifyBatchVerdictsMatchReferees is the verdict differential for
// verdict-only verification: for every golden in the suite plus semantic
// and cosmetic mutants of it, VerifyBatch verdicts on the default oracle
// equal those of the solo printed-trace referee and of the oracle on the
// interpreter backend.
func TestVerifyBatchVerdictsMatchReferees(t *testing.T) {
	tasks := eval.Suite()
	prod := NewOracle(tasks, 13)
	interp := NewOracle(tasks, 13)
	interp.Backend = testbench.BackendInterpreter

	rng := xrng.New(131)
	pass, fail := 0, 0
	for _, task := range tasks {
		golden, err := parser.Parse(task.Golden)
		if err != nil {
			t.Fatalf("%s: golden parse: %v", task.ID, err)
		}
		top := golden.FindModule(eval.TopModule)
		pool := []string{task.Golden, printer.PrintModule(mutate.Cosmetic(top, rng))}
		for trial := 0; trial < 3; trial++ {
			if mut, _ := mutate.Semantic(top, rng, mutate.Config{Count: 1 + trial%2}); mut != nil {
				pool = append(pool, printer.PrintModule(mut))
			}
		}
		want, err := prod.VerifyBatch(context.Background(), task.ID, pool)
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		if !want[0] {
			t.Errorf("%s: golden fails its own verification", task.ID)
		}
		for _, v := range want {
			if v {
				pass++
			} else {
				fail++
			}
		}
		onInterp, err := interp.VerifyBatch(context.Background(), task.ID, pool)
		if err != nil {
			t.Fatalf("%s interpreter: %v", task.ID, err)
		}
		for name, got := range map[string][]bool{
			"printed-trace": refereeVerdicts(t, task, 13, pool, testbench.BackendCompiled),
			"interpreter":   onInterp,
		} {
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s candidate %d: verdict %v, %s referee says %v", task.ID, i, want[i], name, got[i])
				}
			}
		}
	}
	if pass == 0 || fail == 0 {
		t.Fatalf("degenerate verdict mix: %d pass, %d fail", pass, fail)
	}
}

// TestVerdictStoreCrossGolden drills the reason verdict-grade store keys
// include the golden. Two tasks share a combinational interface with 8
// input bits, so both verification stimuli enumerate all 256 vectors and
// have the same content hash, but their goldens differ, and each pool holds
// the other task's golden and a rewrite of it. A store populated by one
// oracle must give a fresh store-backed oracle with a one-entry memo
// identical verdicts without simulating.
func TestVerdictStoreCrossGolden(t *testing.T) {
	ifc := testbench.Interface{
		Inputs:  []testbench.PortSpec{{Name: "a", Width: 4}, {Name: "b", Width: 4}},
		Outputs: []testbench.PortSpec{{Name: "y", Width: 4}},
	}
	mk := func(expr string) string {
		return "module top_module (input [3:0] a, input [3:0] b, output [3:0] y);\n    assign y = " + expr + ";\nendmodule\n"
	}
	and, or, xor := mk("a & b"), mk("a | b"), mk("a ^ b")
	tasks := []eval.Task{
		{ID: "drill_and", Index: 0, Category: eval.Combinational, Golden: and, Ifc: ifc},
		{ID: "drill_or", Index: 1, Category: eval.Combinational, Golden: or, Ifc: ifc},
	}
	// Each pool also holds a rewrite of either golden, so a candidate that
	// fails one task and passes the other is verified under both goldens.
	pools := map[string][]string{
		"drill_and": {or, and, xor, mk("b & a"), mk("b | a")},
		"drill_or":  {and, or, xor, mk("b | a"), mk("b & a")},
	}
	want := []bool{false, true, false, true, false}

	disk, err := resultstore.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prev := testbench.SetStore(disk)
	defer testbench.SetStore(prev)

	verify := func(pass string) {
		o := NewOracle(tasks, 21)
		for _, task := range tasks {
			got, err := o.VerifyBatch(context.Background(), task.ID, pools[task.ID])
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s pass, %s candidate %d: verdict %v, want %v", pass, task.ID, i, got[i], want[i])
				}
			}
		}
	}
	verify("populate")
	// Rerun with a one-entry memo, so it can only read the store: the
	// golden's own full trace, published by the oracle's prepare, is gone
	// by the time its candidate copy is verified.
	defer testbench.SetFPMemoCap(testbench.SetFPMemoCap(1))
	before := testbench.ReadStoreStats()
	verify("rerun")
	if sims := testbench.ReadStoreStats().Sims - before.Sims; sims != 0 {
		t.Fatalf("store-backed rerun simulated %d times, want fp_sims == 0", sims)
	}
}
