package sim

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/memo"
	"repro/internal/verilog/ast"
	"repro/internal/verilog/parser"
)

// normKeyModule is the template TestNormalKeyDistinguishes fills: ports
// PORTA, b, s and y, a parameter PARAM, declarations and a body.
const normKeyModule = `
module top_module (
    input [3:0] PORTA,
    input [3:0] b,
    input s,
    output reg [3:0] y
);
    parameter PARAM = 4'd3;
    DECLS
    BODY
endmodule
`

// normVariant is one filling of normKeyModule; port and param default to
// a and P.
type normVariant struct{ port, param, decls, body string }

func normKeyOf(t *testing.T, v normVariant) string {
	t.Helper()
	if v.port == "" {
		v.port = "a"
	}
	if v.param == "" {
		v.param = "P"
	}
	code := strings.NewReplacer("PORTA", v.port, "PARAM", v.param, "DECLS", v.decls, "BODY", v.body).Replace(normKeyModule)
	src, err := parser.Parse(code)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, code)
	}
	return NormalKey(src)
}

// longSub returns x - y - x - ..., long enough that the normal form folds
// it to a digest as a commutative operand.
func longSub(x, y string) string {
	return x + strings.Repeat(" - "+y+" - "+x, 200)
}

// TestNormalKeyDistinguishes pins what the normal form merges and what it
// keeps apart: only internal renames, literal spellings of one sized
// two-state value and operand order of +, &, | and ^ share a key.
func TestNormalKeyDistinguishes(t *testing.T) {
	const decls = "wire [3:0] u;\n    wire [3:0] v;"
	distinct := []struct {
		name string
		x, y normVariant
	}{
		{"subtraction order",
			normVariant{"", "", decls, "always @(*) y = a - b;"},
			normVariant{"", "", decls, "always @(*) y = b - a;"}},
		{"concatenation is not its operand",
			normVariant{"", "", decls, "always @(*) y = {a} + b;"},
			normVariant{"", "", decls, "always @(*) y = a + b;"}},
		{"literal signedness",
			normVariant{"", "", decls, "always @(*) y = a + 4'sd1;"},
			normVariant{"", "", decls, "always @(*) y = a + 4'd1;"}},
		{"unsized literal",
			normVariant{"", "", decls, "always @(*) y = a + 1;"},
			normVariant{"", "", decls, "always @(*) y = a + 32'd1;"}},
		{"literal width",
			normVariant{"", "", decls, "always @(*) y = a + 4'd1;"},
			normVariant{"", "", decls, "always @(*) y = a + 8'd1;"}},
		{"inverted if",
			normVariant{"", "", decls, "always @(*) if (s) y = a; else y = b;"},
			normVariant{"", "", decls, "always @(*) if (!s) y = b; else y = a;"}},
		{"swapped declarations",
			normVariant{"", "", "wire [3:0] u;\n    wire [1:0] v;", "assign u = a;\n    assign v = b[1:0];\n    always @(*) y = u ^ v;"},
			normVariant{"", "", "wire [1:0] v;\n    wire [3:0] u;", "assign u = a;\n    assign v = b[1:0];\n    always @(*) y = u ^ v;"}},
		{"renamed port",
			normVariant{"", "", decls, "always @(*) y = a & b;"},
			normVariant{"c", "", decls, "always @(*) y = c & b;"}},
		{"operands past the fold length",
			normVariant{"", "", decls, "always @(*) y = (" + longSub("a", "b") + ") + (" + longSub("b", "a") + ");"},
			normVariant{"", "", decls, "always @(*) y = (" + longSub("a", "b") + ") + (" + longSub("a", "b") + ");"}},
		{"renamed parameter",
			normVariant{"", "", decls, "always @(*) y = a + P;"},
			normVariant{"", "Q", decls, "always @(*) y = a + Q;"}},
	}
	for _, c := range distinct {
		if normKeyOf(t, c.x) == normKeyOf(t, c.y) {
			t.Errorf("%s: variants share a NormalKey", c.name)
		}
	}

	shared := []struct {
		name string
		vs   []normVariant
	}{
		{"internal rename", []normVariant{
			{"", "", decls, "assign u = a & b;\n    assign v = u + 4'd1;\n    always @(*) y = v;"},
			{"", "", "wire [3:0] u_r;\n    wire [3:0] v_q;", "assign u_r = a & b;\n    assign v_q = u_r + 4'd1;\n    always @(*) y = v_q;"},
		}},
		{"re-based literal", []normVariant{
			{"", "", decls, "always @(*) y = a ^ 4'd10;"},
			{"", "", decls, "always @(*) y = a ^ 4'ha;"},
			{"", "", decls, "always @(*) y = a ^ 4'b1010;"},
		}},
		{"operands past the fold length swapped", []normVariant{
			{"", "", decls, "always @(*) y = (" + longSub("a", "b") + ") ^ (" + longSub("b", "a") + ");"},
			{"", "", decls, "always @(*) y = (" + longSub("b", "a") + ") ^ (" + longSub("a", "b") + ");"},
		}},
		{"nested & operands swapped", []normVariant{
			{"", "", decls, "always @(*) y = (a & b) & P;"},
			{"", "", decls, "always @(*) y = P & (b & a);"},
		}},
	}
	for _, c := range shared {
		want := normKeyOf(t, c.vs[0])
		for i, v := range c.vs[1:] {
			if normKeyOf(t, v) != want {
				t.Errorf("%s: variant %d has its own NormalKey", c.name, i+1)
			}
		}
	}
}

// resetKeyMemo empties the design-key memo, so a test starts far from its
// backstop cap.
func resetKeyMemo() {
	canonKeys, normalKeys = memo.New[*ast.Source, string](keyMemoCap), memo.New[*ast.Source, string](keyMemoCap)
}

// TestDesignKeysConcurrent keys fresh ASTs from several goroutines at once,
// half asking for NormalKey first and half for CanonicalKey: every caller
// must see the same keys a sequential run computes, both stay memoized, and
// each key is printed once per AST however many callers race for it.
func TestDesignKeysConcurrent(t *testing.T) {
	ref, err := parser.Parse(allocSeq)
	if err != nil {
		t.Fatal(err)
	}
	wantN, wantC := NormalKey(ref), CanonicalKey(ref)
	const asts, workers = 16, 8
	resetKeyMemo() // far from the backstop cap
	for round := 0; round < asts; round++ {
		src, err := parser.Parse(allocSeq)
		if err != nil {
			t.Fatal(err)
		}
		n0, c0 := DesignKeyPrints()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var n, c string
				if w%2 == 0 {
					n, c = NormalKey(src), CanonicalKey(src)
				} else {
					c, n = CanonicalKey(src), NormalKey(src)
				}
				if n != wantN || c != wantC {
					t.Errorf("round %d worker %d: keys (%.8s, %.8s), want (%.8s, %.8s)", round, w, n, c, wantN, wantC)
				}
			}()
		}
		wg.Wait()
		n, nok := normalKeys.Peek(src)
		c, cok := canonKeys.Peek(src)
		if !nok || !cok || n != wantN || c != wantC {
			t.Fatalf("round %d: memo lost a key or left one unpublished: (%.8s, %.8s)", round, n, c)
		}
		if n1, c1 := DesignKeyPrints(); n1-n0 != 1 || c1-c0 != 1 {
			t.Fatalf("round %d: printed %d NormalKeys and %d CanonicalKeys, want one each", round, n1-n0, c1-c0)
		}
	}
}
