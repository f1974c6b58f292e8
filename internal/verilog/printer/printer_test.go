package printer_test

import (
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/verilog/ast"
	"repro/internal/verilog/parser"
	"repro/internal/verilog/printer"
)

// TestRoundTripSuite is the key printer property: for every golden design in
// the benchmark, print(parse(src)) must itself parse, and a second
// print(parse(print)) must be byte-identical (the printer is a fixpoint
// normalizer).
func TestRoundTripSuite(t *testing.T) {
	for _, task := range eval.Suite() {
		src, err := parser.Parse(task.Golden)
		if err != nil {
			t.Fatalf("%s: golden parse: %v", task.ID, err)
		}
		printed := printer.Print(src)
		re, err := parser.Parse(printed)
		if err != nil {
			t.Fatalf("%s: printed output does not parse: %v\n%s", task.ID, err, printed)
		}
		printed2 := printer.Print(re)
		if printed != printed2 {
			t.Errorf("%s: printer is not a fixpoint", task.ID)
		}
	}
}

func TestPrecedenceParens(t *testing.T) {
	// a | (b & c) needs no parens; (a | b) & c does.
	src := `
module m (
    input a,
    input b,
    input c,
    output x,
    output y
);
    assign x = a | b & c;
    assign y = (a | b) & c;
endmodule
`
	s, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out := printer.Print(s)
	if !strings.Contains(out, "assign x = a | b & c;") {
		t.Errorf("x printed with redundant parens:\n%s", out)
	}
	if !strings.Contains(out, "assign y = (a | b) & c;") {
		t.Errorf("y lost required parens:\n%s", out)
	}
}

func TestUnaryReductionParens(t *testing.T) {
	// ~(^x) must keep parens or it re-lexes as the ~^ XNOR token.
	src := `
module m (
    input [3:0] x,
    output y
);
    assign y = ~(^x);
endmodule
`
	s, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out := printer.Print(s)
	re, err := parser.Parse(out)
	if err != nil {
		t.Fatalf("round trip failed: %v\n%s", err, out)
	}
	ca := re.Modules[0].Items[0].(*ast.ContAssign)
	not, ok := ca.RHS.(*ast.Unary)
	if !ok || not.Op != ast.BitNot {
		t.Fatalf("outer op lost: %#v", ca.RHS)
	}
	inner, ok := not.X.(*ast.Unary)
	if !ok || inner.Op != ast.RedXor {
		t.Fatalf("inner reduction lost: %#v", not.X)
	}
}

func TestTernaryInBinaryParens(t *testing.T) {
	src := `
module m (
    input a,
    input b,
    output y
);
    assign y = (a ? b : a) | b;
endmodule
`
	s, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out := printer.Print(s)
	re, rerr := parser.Parse(out)
	if rerr != nil {
		t.Fatalf("round trip: %v\n%s", rerr, out)
	}
	ca := re.Modules[0].Items[0].(*ast.ContAssign)
	if b, ok := ca.RHS.(*ast.Binary); !ok || b.Op != ast.BitOr {
		t.Fatalf("structure changed: %#v", ca.RHS)
	}
}

func TestElseIfChain(t *testing.T) {
	src := `
module m (
    input [1:0] s,
    output reg y
);
    always @(*) begin
        if (s == 2'd0)
            y = 1'b0;
        else if (s == 2'd1)
            y = 1'b1;
        else
            y = 1'b0;
    end
endmodule
`
	s, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out := printer.Print(s)
	if !strings.Contains(out, "else if (") {
		t.Errorf("else-if chain not flattened:\n%s", out)
	}
	if _, err := parser.Parse(out); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

func TestPrintStmtAndExpr(t *testing.T) {
	e := &ast.Binary{Op: ast.Add, X: &ast.Ident{Name: "a"}, Y: &ast.Ident{Name: "b"}}
	if got := printer.PrintExpr(e); got != "a + b" {
		t.Errorf("PrintExpr = %q", got)
	}
	st := &ast.AssignStmt{LHS: &ast.Ident{Name: "q"}, RHS: e, Blocking: false}
	if got := strings.TrimSpace(printer.PrintStmt(st, 0)); got != "q <= a + b;" {
		t.Errorf("PrintStmt = %q", got)
	}
}

// TestAppendNormalForm pins the normal form's spelling: the internal net
// becomes sentinel 0 (the port and the parameter keep their names), the
// sized literal prints as width and hex value, and the + operands print
// bracketed, longer first.
func TestAppendNormalForm(t *testing.T) {
	src, err := parser.Parse(`
module m (
    input [3:0] a,
    output [3:0] y
);
    parameter P = 2;
    wire [3:0] t;
    assign t = a + 4'b0011;
    assign y = t << P;
endmodule
`)
	if err != nil {
		t.Fatal(err)
	}
	want := "module m (\n    input [3:0] a,\n    output [3:0] y\n);\n" +
		"    parameter P = 2;\n" +
		"    wire [3:0] \x010\x01;\n" +
		"    assign \x010\x01 = +\x024'h3\x03\x02a\x03;\n" +
		"    assign y = \x010\x01 << P;\n" +
		"endmodule\n"
	if got := string(printer.AppendNormal(nil, src)); got != want {
		t.Fatalf("normal form:\n%q\nwant\n%q", got, want)
	}
}
