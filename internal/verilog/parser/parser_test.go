package parser

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/verilog/ast"
)

func mustParseModule(t *testing.T, src string) *ast.Module {
	t.Helper()
	m, err := ParseModule(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

func TestModulePorts(t *testing.T) {
	m := mustParseModule(t, `
module top_module (
    input clk,
    input [7:0] a, b,
    output reg [3:0] q,
    output done
);
endmodule
`)
	if m.Name != "top_module" {
		t.Errorf("name = %q", m.Name)
	}
	if len(m.Ports) != 5 {
		t.Fatalf("got %d ports, want 5", len(m.Ports))
	}
	// Sticky direction/range: b inherits input [7:0].
	b := m.Ports[2]
	if b.Name != "b" || b.Dir != ast.Input || b.Range == nil {
		t.Errorf("port b = %+v", b)
	}
	q := m.Ports[3]
	if !q.IsReg || q.Dir != ast.Output {
		t.Errorf("port q = %+v", q)
	}
	done := m.Ports[4]
	if done.IsReg || done.Range != nil {
		t.Errorf("done should reset reg/range stickiness: %+v", done)
	}
}

func TestItems(t *testing.T) {
	m := mustParseModule(t, `
module m (input a, output y);
    wire w1, w2;
    reg [3:0] r;
    integer i;
    parameter WIDTH = 8;
    localparam [1:0] MODE = 2'd1;
    assign y = a & w1;
    always @(posedge a) r <= r + 1;
    always @(*) w2 = a;
    initial r = 0;
endmodule
`)
	counts := map[string]int{}
	for _, it := range m.Items {
		switch it.(type) {
		case *ast.NetDecl:
			counts["net"]++
		case *ast.ParamDecl:
			counts["param"]++
		case *ast.ContAssign:
			counts["assign"]++
		case *ast.Always:
			counts["always"]++
		case *ast.Initial:
			counts["initial"]++
		}
	}
	want := map[string]int{"net": 3, "param": 2, "assign": 1, "always": 2, "initial": 1}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("%s count = %d, want %d", k, counts[k], v)
		}
	}
}

func TestPrecedence(t *testing.T) {
	m := mustParseModule(t, `
module m (input a, input b, input c, output y);
    assign y = a | b & c;
endmodule
`)
	ca := m.Items[0].(*ast.ContAssign)
	or, ok := ca.RHS.(*ast.Binary)
	if !ok || or.Op != ast.BitOr {
		t.Fatalf("root should be |, got %T", ca.RHS)
	}
	and, ok := or.Y.(*ast.Binary)
	if !ok || and.Op != ast.BitAnd {
		t.Fatalf("right child should be &, got %T", or.Y)
	}
}

func TestTernaryRightAssoc(t *testing.T) {
	m := mustParseModule(t, `
module m (input a, input b, output y);
    assign y = a ? b : a ? 1'b0 : 1'b1;
endmodule
`)
	ca := m.Items[0].(*ast.ContAssign)
	tern := ca.RHS.(*ast.Ternary)
	if _, ok := tern.Else.(*ast.Ternary); !ok {
		t.Fatalf("else branch should be nested ternary, got %T", tern.Else)
	}
}

func TestConcatReplSelects(t *testing.T) {
	m := mustParseModule(t, `
module m (input [7:0] a, output [15:0] y);
    assign y = {{8{a[7]}}, a[6:0], a[0]};
endmodule
`)
	ca := m.Items[0].(*ast.ContAssign)
	c, ok := ca.RHS.(*ast.Concat)
	if !ok || len(c.Parts) != 3 {
		t.Fatalf("rhs = %T with %d parts", ca.RHS, len(c.Parts))
	}
	if _, ok := c.Parts[0].(*ast.Repl); !ok {
		t.Errorf("part 0 = %T, want Repl", c.Parts[0])
	}
	if ps, ok := c.Parts[1].(*ast.PartSel); !ok || ps.Kind != ast.SelConst {
		t.Errorf("part 1 = %T", c.Parts[1])
	}
	if _, ok := c.Parts[2].(*ast.Index); !ok {
		t.Errorf("part 2 = %T, want Index", c.Parts[2])
	}
}

func TestIndexedPartSelect(t *testing.T) {
	m := mustParseModule(t, `
module m (input [31:0] a, input [2:0] s, output [3:0] y, output [3:0] z);
    assign y = a[s*4 +: 4];
    assign z = a[s*4+3 -: 4];
endmodule
`)
	y := m.Items[0].(*ast.ContAssign).RHS.(*ast.PartSel)
	if y.Kind != ast.SelPlus {
		t.Errorf("y kind = %v", y.Kind)
	}
	z := m.Items[1].(*ast.ContAssign).RHS.(*ast.PartSel)
	if z.Kind != ast.SelMinus {
		t.Errorf("z kind = %v", z.Kind)
	}
}

func TestCaseKindsAndDefault(t *testing.T) {
	m := mustParseModule(t, `
module m (input [1:0] s, output reg y);
    always @(*) begin
        casez (s)
            2'b1z: y = 1'b1;
            2'b01, 2'b00: y = 1'b0;
            default: y = 1'bx;
        endcase
    end
endmodule
`)
	alw := m.Items[0].(*ast.Always)
	blk := alw.Body.(*ast.Block)
	cs := blk.Stmts[0].(*ast.Case)
	if cs.Kind != ast.CaseZ {
		t.Errorf("kind = %v", cs.Kind)
	}
	if len(cs.Items) != 3 {
		t.Fatalf("items = %d", len(cs.Items))
	}
	if len(cs.Items[1].Labels) != 2 {
		t.Errorf("multi-label arm has %d labels", len(cs.Items[1].Labels))
	}
	if cs.Items[2].Labels != nil {
		t.Error("default arm should have nil labels")
	}
}

func TestNonBlockingVsLessEqual(t *testing.T) {
	m := mustParseModule(t, `
module m (input clk, input [3:0] a, output reg y);
    always @(posedge clk)
        if (a <= 4'd3)
            y <= 1'b1;
endmodule
`)
	alw := m.Items[0].(*ast.Always)
	iff := alw.Body.(*ast.If)
	cmp, ok := iff.Cond.(*ast.Binary)
	if !ok || cmp.Op != ast.Leq {
		t.Fatalf("condition should be <= comparison, got %#v", iff.Cond)
	}
	as := iff.Then.(*ast.AssignStmt)
	if as.Blocking {
		t.Error("statement-position <= must be non-blocking assign")
	}
}

func TestForLoop(t *testing.T) {
	m := mustParseModule(t, `
module m (input [7:0] in, output reg [3:0] n);
    integer i;
    always @(*) begin
        n = 0;
        for (i = 0; i < 8; i = i + 1)
            if (in[i]) n = n + 1;
    end
endmodule
`)
	alw := m.Items[1].(*ast.Always)
	blk := alw.Body.(*ast.Block)
	f, ok := blk.Stmts[1].(*ast.For)
	if !ok {
		t.Fatalf("second stmt = %T", blk.Stmts[1])
	}
	if f.Init == nil || f.Step == nil || f.Cond == nil {
		t.Error("for loop missing parts")
	}
}

func TestInstances(t *testing.T) {
	src := `
module sub (input a, output y);
    assign y = ~a;
endmodule

module top_module (input x, output z);
    wire m;
    sub u1 (.a(x), .y(m));
    sub u2 (m, z);
endmodule
`
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(s.Modules) != 2 {
		t.Fatalf("modules = %d", len(s.Modules))
	}
	top := s.FindModule("top_module")
	var insts []*ast.Instance
	for _, it := range top.Items {
		if inst, ok := it.(*ast.Instance); ok {
			insts = append(insts, inst)
		}
	}
	if len(insts) != 2 {
		t.Fatalf("instances = %d", len(insts))
	}
	if !insts[0].ByName || insts[1].ByName {
		t.Error("connection style flags wrong")
	}
}

func TestParamOverride(t *testing.T) {
	src := `
module sub (input a, output y);
    parameter N = 1;
    assign y = a;
endmodule
module top_module (input x, output z);
    sub #(.N(4)) u (.a(x), .y(z));
endmodule
`
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	top := s.FindModule("top_module")
	inst := top.Items[0].(*ast.Instance)
	if len(inst.ParamsBy) != 1 || inst.ParamsBy[0].Name != "N" {
		t.Errorf("params = %+v", inst.ParamsBy)
	}
}

func TestConcatLValue(t *testing.T) {
	m := mustParseModule(t, `
module m (input [3:0] a, input [3:0] b, input cin, output [3:0] s, output co);
    assign {co, s} = a + b + cin;
endmodule
`)
	ca := m.Items[0].(*ast.ContAssign)
	if _, ok := ca.LHS.(*ast.Concat); !ok {
		t.Fatalf("lhs = %T, want Concat", ca.LHS)
	}
}

func TestSyntaxErrors(t *testing.T) {
	for name, src := range map[string]string{
		"truncated":     "module m (input a, output y);\n    assign y = a &",
		"missing-end":   "module m (input a, output y);\n    assign y = a;",
		"no-module":     "wire x;",
		"bad-stmt":      "module m (input a); always @(*) 42 = a; endmodule",
		"empty":         "",
		"garbage":       "!!!",
		"sysid-in-expr": "module m (input a, output y); assign y = $signed(a); endmodule",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected parse error", name)
		} else if !errors.Is(err, ErrSyntax) {
			t.Errorf("%s: error %v is not ErrSyntax", name, err)
		}
	}
}

func TestErrorListBounded(t *testing.T) {
	// A long stream of garbage must not produce unbounded errors.
	src := "module m (input a);\n" + strings.Repeat("@@ ;\n", 200) + "endmodule"
	_, err := Parse(src)
	if err == nil {
		t.Fatal("expected error")
	}
	var list ErrorList
	if !errors.As(err, &list) {
		t.Fatalf("Parse error %v does not carry its ErrorList", err)
	}
	if len(list) == 0 || len(list) > maxErrors {
		t.Errorf("error list has %d entries, want 1..%d", len(list), maxErrors)
	}
}

// TestParseErrorsLexicalFirst pins the error text: lexical errors lead the
// list and count against its budget, wherever in the source they occur and
// however early the parser stops. The expected strings were produced by the
// parser that lexed the whole source before parsing.
func TestParseErrorsLexicalFirst(t *testing.T) {
	cases := []struct {
		name, src, want string
		n               int // entries in the ErrorList
	}{
		{
			name: "lexical error after the parser stops",
			src:  "wire w;\nmodule m(input a); assign y = a ` b; endmodule\n",
			want: "verilog syntax error: 2:33: unexpected character \"`\"; 1:1: expected 'module', found wire",
			n:    2,
		},
		{
			name: "25 lexical errors",
			src:  "module m(input a);\n" + strings.Repeat("` ", 25) + "\nendmodule\n",
			want: "verilog syntax error: 2:1: unexpected character \"`\"; 2:3: unexpected character \"`\"; 2:5: unexpected character \"`\"; and 22 more",
			n:    25,
		},
		{
			name: "unterminated block comment at EOF",
			src:  "module m(input a, output y);\n    assign y = a;\nendmodule\n/* never closed",
			want: "verilog syntax error: 4:1: unterminated block comment",
			n:    1,
		},
		{
			name: "lexical error in a second module after the first failed",
			src:  "module a(input x); assign = ; endmodule\nmodule b(input y); wire w = y ` 1; endmodule\n",
			want: "verilog syntax error: 2:31: unexpected character \"`\"; 1:27: unexpected token = in expression; 1:29: expected =, found ;; and 4 more",
			n:    7,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatal("expected error")
			}
			if got := err.Error(); got != tc.want {
				t.Errorf("error text\n got: %s\nwant: %s", got, tc.want)
			}
			if !errors.Is(err, ErrSyntax) {
				t.Error("error does not wrap ErrSyntax")
			}
			var list ErrorList
			if !errors.As(err, &list) {
				t.Fatal("error does not carry its ErrorList")
			}
			if len(list) != tc.n {
				t.Errorf("ErrorList has %d entries, want %d", len(list), tc.n)
			}
		})
	}
}

func TestEmptySensitivityRejected(t *testing.T) {
	_, err := Parse("module m (input a, output reg y); always y = a; endmodule")
	if err == nil {
		t.Error("always without @ must be rejected")
	}
}

// TestParseNestingBound checks every nesting construct at the bound (parses)
// and one past it (a syntax error naming the bound).
func TestParseNestingBound(t *testing.T) {
	rep := strings.Repeat
	assign := func(rhs string) string {
		return "module m(input [7:0] a, output y); assign y = " + rhs + "; endmodule"
	}
	always := func(body string) string {
		return "module m(input a, output reg y); always @* " + body + " endmodule"
	}
	cases := map[string]func(n int) string{
		"parens":  func(n int) string { return assign(rep("(", n) + "a" + rep(")", n)) },
		"concat":  func(n int) string { return assign(rep("{", n) + "a" + rep("}", n)) },
		"unary":   func(n int) string { return assign(rep("~", n) + "a") },
		"ternary": func(n int) string { return assign(rep("a ? ", n) + "a" + rep(" : a", n)) },
		"select":  func(n int) string { return assign(rep("a[", n) + "0" + rep("]", n)) },
		"begin":   func(n int) string { return always(rep("begin ", n) + "y = a;" + rep(" end", n)) },
		"if":      func(n int) string { return always(rep("if (a) ", n) + "y = a;") },
		"lvalue":  func(n int) string { return always(rep("{", n) + "y" + rep("}", n) + " = a;") },
	}
	for name, gen := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(gen(maxDepth)); err != nil {
				t.Fatalf("nesting %d deep: %v", maxDepth, err)
			}
			_, err := Parse(gen(maxDepth + 1))
			if !errors.Is(err, ErrSyntax) || !strings.Contains(err.Error(), "nesting deeper than 1024 levels") {
				t.Fatalf("nesting %d deep: error %v, want the nesting bound", maxDepth+1, err)
			}
		})
	}
}
