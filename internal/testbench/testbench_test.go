package testbench

import (
	"context"
	"testing"

	"repro/internal/sim"
	"repro/internal/verilog/ast"
	"repro/internal/verilog/parser"
)

func combIfc() Interface {
	return Interface{
		Inputs:  []PortSpec{{Name: "a", Width: 2}, {Name: "b", Width: 1}},
		Outputs: []PortSpec{{Name: "y", Width: 2}},
	}
}

func seqIfc() Interface {
	return Interface{
		Inputs:  []PortSpec{{Name: "clk", Width: 1}, {Name: "reset", Width: 1}, {Name: "d", Width: 4}},
		Outputs: []PortSpec{{Name: "q", Width: 4}},
		Clock:   "clk",
		Reset:   "reset",
	}
}

// stimCases returns every case of st in map form.
func stimCases(st *Stimulus) []Case {
	out := make([]Case, st.NumCases())
	for ci := range out {
		out[ci] = st.Case(ci)
	}
	return out
}

func TestInterfaceHelpers(t *testing.T) {
	c := combIfc()
	if c.Sequential() {
		t.Error("comb interface reports sequential")
	}
	s := seqIfc()
	if !s.Sequential() {
		t.Error("seq interface reports combinational")
	}
	data := s.DataInputs()
	if len(data) != 1 || data[0].Name != "d" {
		t.Errorf("DataInputs = %v", data)
	}
}

func TestExhaustiveEnumeration(t *testing.T) {
	g := NewGenerator(1)
	st := g.Ranking(combIfc()) // 3 input bits -> 8 vectors, under MaxCombVectors
	if st.NumCases() != 8 {
		t.Fatalf("cases = %d, want 8 (exhaustive)", st.NumCases())
	}
	seen := map[string]bool{}
	for _, c := range stimCases(st) {
		if len(c.Steps) != 1 {
			t.Fatal("combinational case should have one step")
		}
		key := ""
		for _, name := range []string{"a", "b"} {
			key += c.Steps[0].Inputs[name].String() + "|"
		}
		if seen[key] {
			t.Errorf("duplicate vector %s", key)
		}
		seen[key] = true
	}
}

func TestRandomSamplingCapped(t *testing.T) {
	g := NewGenerator(1)
	wide := Interface{
		Inputs:  []PortSpec{{Name: "a", Width: 32}},
		Outputs: []PortSpec{{Name: "y", Width: 32}},
	}
	st := g.Ranking(wide)
	if st.NumCases() != g.MaxCombVectors {
		t.Fatalf("cases = %d, want cap %d", st.NumCases(), g.MaxCombVectors)
	}
	// Corners must be present.
	has := func(want string) bool {
		for _, c := range stimCases(st) {
			if c.Steps[0].Inputs["a"].String() == want {
				return true
			}
		}
		return false
	}
	if !has(sim.NewKnown(32, 0).String()) {
		t.Error("missing all-zeros corner")
	}
	if !has(sim.Not(sim.NewKnown(32, 0)).String()) {
		t.Error("missing all-ones corner")
	}
}

func TestSequentialCasesStartWithReset(t *testing.T) {
	g := NewGenerator(1)
	st := g.Ranking(seqIfc())
	if st.NumCases() == 0 {
		t.Fatal("no cases")
	}
	for ci, c := range stimCases(st) {
		if len(c.Steps) < 3 {
			t.Fatalf("case %d too short", ci)
		}
		for s := 0; s < 2; s++ {
			rv, ok := c.Steps[s].Inputs["reset"]
			if !ok {
				t.Fatalf("case %d step %d missing reset", ci, s)
			}
			if u, _ := rv.Uint64(); u != 1 {
				t.Errorf("case %d step %d reset=%d, want 1 (active high)", ci, s, u)
			}
		}
		if u, _ := c.Steps[2].Inputs["reset"].Uint64(); u != 0 {
			t.Errorf("case %d reset still asserted after preamble", ci)
		}
	}
}

func TestActiveLowReset(t *testing.T) {
	ifc := seqIfc()
	ifc.ResetActiveLow = true
	g := NewGenerator(1)
	st := g.Ranking(ifc)
	if u, _ := st.Case(0).Steps[0].Inputs["reset"].Uint64(); u != 0 {
		t.Error("active-low reset should be driven 0 during the preamble")
	}
	if u, _ := st.Case(0).Steps[2].Inputs["reset"].Uint64(); u != 1 {
		t.Error("active-low reset should be released to 1")
	}
}

func TestImperfectionDropsCases(t *testing.T) {
	g := NewGenerator(1)
	full := g.Ranking(combIfc()).NumCases()
	g2 := NewGenerator(1)
	g2.Imperfection = 0.5
	dropped := g2.Ranking(combIfc()).NumCases()
	if dropped >= full {
		t.Errorf("imperfection did not drop cases: %d vs %d", dropped, full)
	}
	if dropped < 1 {
		t.Error("imperfection must keep at least one case")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(42).Ranking(seqIfc())
	b := NewGenerator(42).Ranking(seqIfc())
	if a.NumCases() != b.NumCases() {
		t.Fatal("case counts differ")
	}
	for ci := 0; ci < a.NumCases(); ci++ {
		ac, bc := a.Case(ci), b.Case(ci)
		for si := range ac.Steps {
			for name, v := range ac.Steps[si].Inputs {
				if !v.Equal(bc.Steps[si].Inputs[name]) {
					t.Fatalf("case %d step %d input %s differs", ci, si, name)
				}
			}
		}
	}
}

const xorSrc = `
module top_module (
    input [1:0] a,
    input b,
    output [1:0] y
);
    assign y = a ^ {b, b};
endmodule
`

const orSrc = `
module top_module (
    input [1:0] a,
    input b,
    output [1:0] y
);
    assign y = a | {b, b};
endmodule
`

func TestRunTraceAndAgreement(t *testing.T) {
	g := NewGenerator(9)
	st := g.Ranking(combIfc())
	xorAst, err := parser.Parse(xorSrc)
	if err != nil {
		t.Fatal(err)
	}
	orAst, err := parser.Parse(orSrc)
	if err != nil {
		t.Fatal(err)
	}
	trX1 := Run(xorAst, "top_module", st)
	trX2 := Run(xorAst, "top_module", st)
	trOr := Run(orAst, "top_module", st)
	if trX1.Err != nil || trOr.Err != nil {
		t.Fatalf("run errors: %v %v", trX1.Err, trOr.Err)
	}
	if !Agrees(trX1, trX2) {
		t.Error("same design must agree with itself")
	}
	if trX1.Fingerprint() != trX2.Fingerprint() {
		t.Error("fingerprints of identical traces differ")
	}
	if Agrees(trX1, trOr) {
		t.Error("xor and or must disagree")
	}
	// They agree where a^bb == a|bb; at least one case must differ.
	diff := 0
	for i := 0; i < st.NumCases(); i++ {
		if !CaseAgrees(trX1, trOr, i) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("no differing case found")
	}
}

func TestRunRecordsErrors(t *testing.T) {
	badAst, err := parser.Parse(`
module top_module (
    input en,
    output y
);
    wire w;
    assign w = en ? ~w : 1'b0;
    assign y = w;
endmodule
`)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(2)
	st := g.Ranking(Interface{
		Inputs:  []PortSpec{{Name: "en", Width: 1}},
		Outputs: []PortSpec{{Name: "y", Width: 1}},
	})
	tr := Run(badAst, "top_module", st)
	if tr.Err == nil {
		t.Fatal("oscillating design should record an error")
	}
	// Error traces agree only with identical error traces.
	tr2 := Run(badAst, "top_module", st)
	if !Agrees(tr, tr2) {
		t.Error("identical failures should agree")
	}
	okAst, _ := parser.Parse(`
module top_module (
    input en,
    output y
);
    assign y = en;
endmodule
`)
	trOK := Run(okAst, "top_module", st)
	if Agrees(tr, trOK) {
		t.Error("error trace must not agree with a clean trace")
	}
}

func TestVerify(t *testing.T) {
	g := NewGenerator(5)
	st := g.Verification(combIfc())
	xorAst, _ := parser.Parse(xorSrc)
	orAst, _ := parser.Parse(orSrc)
	golden := runOne(xorAst, "top_module", st, BackendCompiled)
	v, err := VerifyGang(context.Background(), []*ast.Source{xorAst, orAst}, "top_module", st, BackendCompiled, golden)
	if err != nil {
		t.Fatal(err)
	}
	if !v[0] {
		t.Error("design must verify against itself")
	}
	if v[1] {
		t.Error("different design must fail verification")
	}
}

func TestTraceString(t *testing.T) {
	g := NewGenerator(5)
	st := g.Ranking(combIfc())
	xorAst, _ := parser.Parse(xorSrc)
	tr := Run(xorAst, "top_module", st)
	s := tr.String()
	if s == "" || len(s) < 20 {
		t.Errorf("trace render too short: %q", s)
	}
	tr.Err = ErrRun
	if got := tr.String(); got[:10] != "SIMULATION" {
		t.Errorf("error render = %q", got)
	}
}
