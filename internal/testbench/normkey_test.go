package testbench_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/mutate"
	"repro/internal/sim"
	"repro/internal/testbench"
	"repro/internal/verilog/ast"
	"repro/internal/verilog/parser"
	"repro/internal/verilog/printer"
	"repro/internal/verilog/sem"
	"repro/internal/xrng"
)

// normKeySamples is how many SimClient samples per (task, model)
// TestNormalKeyImpliesEqualTraces draws. Cosmetic variants are a fixed
// share of every pool, so a short prefix of each pool already yields
// thousands of same-key pairs across the suite; the interpreter runs are
// what the size buys.
const normKeySamples = 10

// TestNormalKeyImpliesEqualTraces is the soundness gate for keying the
// fingerprint memo, the store and the ranking dedup by sim.NormalKey: over
// every task, SimClient samples of three models plus the golden are grouped
// by NormalKey, and every member of a group must produce the interpreter
// trace of the group's first member — memo-bypassing runs on the reference
// backend — under the task's ranking and verification stimuli. Members
// that print identically (one CanonicalKey) are checked once.
func TestNormalKeyImpliesEqualTraces(t *testing.T) {
	ctx := context.Background()
	suite := eval.Suite()
	const seed = 1
	var clients []*llm.SimClient
	for _, name := range []string{"deepseek-r1", "o3-mini-high", "qwq-32b"} {
		p, err := llm.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := llm.NewSimClient(p, seed, suite)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	pairs, groups := 0, 0
	for _, task := range suite {
		codes := []string{task.Golden}
		for _, c := range clients {
			for s := 0; s < normKeySamples; s++ {
				r, err := c.Generate(ctx, llm.GenerateRequest{TaskID: task.ID, Spec: task.Spec, SampleIndex: s})
				if err != nil {
					if errors.Is(err, llm.ErrTransient) {
						continue
					}
					t.Fatal(err)
				}
				codes = append(codes, r.Code)
			}
		}
		byKey := map[string][]*ast.Source{}
		var order []string
		seen := map[string]bool{}
		for _, code := range codes {
			src, err := eval.ParseCached(code)
			if err != nil || src.FindModule(eval.TopModule) == nil || sem.Check(src).HasErrors() {
				continue
			}
			canon := sim.CanonicalKey(src)
			if seen[canon] {
				continue
			}
			seen[canon] = true
			k := sim.NormalKey(src)
			if byKey[k] == nil {
				order = append(order, k)
			}
			byKey[k] = append(byKey[k], src)
		}
		stims := []*testbench.Stimulus{
			testbench.RankingCached(seed+int64(task.Index), 0.30, task.Ifc),
			testbench.VerificationCached(seed+int64(task.Index), task.Ifc),
		}
		for _, k := range order {
			members := byKey[k]
			if len(members) < 2 {
				continue
			}
			groups++
			for _, st := range stims {
				first := testbench.RunBackend(members[0], eval.TopModule, st, testbench.BackendInterpreter).FP()
				for i, m := range members[1:] {
					got := testbench.RunBackend(m, eval.TopModule, st, testbench.BackendInterpreter).FP()
					if !testbench.FPAgrees(got, first) {
						t.Fatalf("task %s: member %d of a NormalKey group disagrees with the first member (err %v vs %v)",
							task.ID, i+1, got.Err, first.Err)
					}
					pairs++
				}
			}
		}
	}
	if groups == 0 {
		t.Fatal("no NormalKey group with two distinct spellings: the pools hold no cosmetic variants")
	}
	t.Logf("%d member-vs-first comparisons agree across %d groups", pairs, groups)
}

// FuzzNormalKey fuzzes the normal form from both sides. For any source the
// parser accepts, NormalKey survives print → parse. For a semantically valid
// top_module with literal port and net ranges, a cosmetic variant
// (mutate.Cosmetic under the fuzzed seed) that shares its NormalKey must
// produce its interpreter fingerprints on a small generated stimulus. The
// seed corpus (testdata/fuzz/FuzzNormalKey) holds a few suite goldens.
func FuzzNormalKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, code string, seed uint64) {
		if len(code) > 4096 {
			return // keeps every interpreter run small
		}
		src, err := parser.Parse(code)
		if err != nil {
			return
		}
		k := sim.NormalKey(src)
		printed := printer.Print(src)
		again, err := parser.Parse(printed)
		if err != nil {
			return // FuzzParsePrintRoundTrip's finding, not this fuzzer's
		}
		if got := sim.NormalKey(again); got != k {
			t.Fatalf("NormalKey changed across print -> parse\ninput:\n%s\nprinted:\n%s", code, printed)
		}
		top := src.FindModule(eval.TopModule)
		if top == nil || sem.Check(src).HasErrors() {
			return
		}
		ifc, ok := fuzzInterface(top)
		if !ok {
			return
		}
		variant := &ast.Source{Modules: make([]*ast.Module, len(src.Modules))}
		for i, m := range src.Modules {
			if m == top {
				m = mutate.Cosmetic(m, xrng.New(seed))
			}
			variant.Modules[i] = m
		}
		if sim.NormalKey(variant) != k {
			return
		}
		g := testbench.NewGenerator(int64(seed))
		g.MaxCombVectors, g.SeqCases, g.SeqSteps = 8, 2, 8
		st := g.Ranking(ifc)
		want := testbench.RunBackend(src, eval.TopModule, st, testbench.BackendInterpreter).FP()
		got := testbench.RunBackend(variant, eval.TopModule, st, testbench.BackendInterpreter).FP()
		if !testbench.FPAgrees(got, want) {
			t.Fatalf("cosmetic variant shares the NormalKey but not the trace (err %v vs %v)\ninput:\n%s\nvariant:\n%s",
				got.Err, want.Err, printed, printer.Print(variant))
		}
	})
}

// fuzzInterface derives a stimulus interface from m's ports — clk is the
// clock, reset the reset — or reports false when a port or net range is not
// a literal of at most 64 bits, which keeps fuzzed designs cheap to run.
func fuzzInterface(m *ast.Module) (testbench.Interface, bool) {
	var ifc testbench.Interface
	for _, p := range m.Ports {
		w, ok := fuzzWidth(p.Range)
		if !ok {
			return ifc, false
		}
		spec := testbench.PortSpec{Name: p.Name, Width: w}
		switch p.Dir {
		case ast.Input:
			ifc.Inputs = append(ifc.Inputs, spec)
			switch p.Name {
			case "clk":
				ifc.Clock = p.Name
			case "reset":
				ifc.Reset = p.Name
			}
		case ast.Output:
			ifc.Outputs = append(ifc.Outputs, spec)
		default:
			return ifc, false
		}
	}
	for _, it := range m.Items {
		if d, isDecl := it.(*ast.NetDecl); isDecl {
			if _, ok := fuzzWidth(d.Range); !ok {
				return ifc, false
			}
		}
	}
	return ifc, len(ifc.Outputs) > 0
}

func fuzzWidth(r *ast.Range) (int, bool) {
	if r == nil {
		return 1, true
	}
	msb, ok1 := r.MSB.(*ast.Number)
	lsb, ok2 := r.LSB.(*ast.Number)
	if !ok1 || !ok2 || len(msb.Val) != 1 || len(lsb.Val) != 1 || msb.Val[0] > 63 || lsb.Val[0] > msb.Val[0] {
		return 0, false
	}
	return int(msb.Val[0]-lsb.Val[0]) + 1, true
}
