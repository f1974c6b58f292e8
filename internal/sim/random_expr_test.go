package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/verilog/parser"
)

// randExpr builds a random combinational expression over inputs a and b
// (both 8-bit) together with a reference evaluator over uint64 that mirrors
// the subset's width semantics at a fixed 8-bit context.
type exprGen struct {
	rng *rand.Rand
}

// gen returns (verilog text, reference func) for an expression evaluated in
// an 8-bit assignment context with zero-extension semantics.
func (g *exprGen) gen(depth int) (string, func(a, b uint64) uint64) {
	const mask = 0xFF
	if depth <= 0 || g.rng.Float64() < 0.25 {
		switch g.rng.Intn(3) {
		case 0:
			return "a", func(a, _ uint64) uint64 { return a }
		case 1:
			return "b", func(_, b uint64) uint64 { return b }
		default:
			k := uint64(g.rng.Intn(256))
			return fmt.Sprintf("8'd%d", k), func(_, _ uint64) uint64 { return k }
		}
	}
	switch g.rng.Intn(8) {
	case 0:
		x, fx := g.gen(depth - 1)
		return "(~" + x + ")", func(a, b uint64) uint64 { return ^fx(a, b) & mask }
	case 1:
		x, fx := g.gen(depth - 1)
		y, fy := g.gen(depth - 1)
		return "(" + x + " + " + y + ")", func(a, b uint64) uint64 { return (fx(a, b) + fy(a, b)) & mask }
	case 2:
		x, fx := g.gen(depth - 1)
		y, fy := g.gen(depth - 1)
		return "(" + x + " - " + y + ")", func(a, b uint64) uint64 { return (fx(a, b) - fy(a, b)) & mask }
	case 3:
		x, fx := g.gen(depth - 1)
		y, fy := g.gen(depth - 1)
		return "(" + x + " & " + y + ")", func(a, b uint64) uint64 { return fx(a, b) & fy(a, b) }
	case 4:
		x, fx := g.gen(depth - 1)
		y, fy := g.gen(depth - 1)
		return "(" + x + " | " + y + ")", func(a, b uint64) uint64 { return fx(a, b) | fy(a, b) }
	case 5:
		x, fx := g.gen(depth - 1)
		y, fy := g.gen(depth - 1)
		return "(" + x + " ^ " + y + ")", func(a, b uint64) uint64 { return fx(a, b) ^ fy(a, b) }
	case 6:
		x, fx := g.gen(depth - 1)
		k := g.rng.Intn(8)
		return fmt.Sprintf("(%s << %d)", x, k), func(a, b uint64) uint64 { return (fx(a, b) << uint(k)) & mask }
	default:
		x, fx := g.gen(depth - 1)
		k := g.rng.Intn(8)
		return fmt.Sprintf("(%s >> %d)", x, k), func(a, b uint64) uint64 { return fx(a, b) >> uint(k) }
	}
}

// TestRandomExpressionsMatchReference simulates randomly generated
// combinational designs and compares every output against a direct Go
// reference evaluation. This is the simulator's strongest differential test.
func TestRandomExpressionsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	g := &exprGen{rng: rng}
	for trial := 0; trial < 60; trial++ {
		expr, ref := g.gen(3)
		src := fmt.Sprintf(`
module top_module (
    input [7:0] a,
    input [7:0] b,
    output [7:0] y
);
    assign y = %s;
endmodule
`, expr)
		parsed, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: generated source does not parse: %v\n%s", trial, err, src)
		}
		s, err := New(parsed, "top_module")
		if err != nil {
			t.Fatalf("trial %d: elaborate: %v\n%s", trial, err, src)
		}
		for vec := 0; vec < 12; vec++ {
			av := rng.Uint64() & 0xFF
			bv := rng.Uint64() & 0xFF
			if err := s.SetInputUint("a", av); err != nil {
				t.Fatal(err)
			}
			if err := s.SetInputUint("b", bv); err != nil {
				t.Fatal(err)
			}
			if err := s.Settle(); err != nil {
				t.Fatalf("trial %d: settle: %v\n%s", trial, err, src)
			}
			got, err := s.Output("y")
			if err != nil {
				t.Fatal(err)
			}
			gotU, ok := got.Uint64()
			if !ok {
				t.Fatalf("trial %d: output has X bits for known inputs: %s\nexpr: %s", trial, got, expr)
			}
			want := ref(av, bv)
			if gotU != want {
				t.Fatalf("trial %d: a=%d b=%d: y=%d, want %d\nexpr: %s", trial, av, bv, gotU, want, expr)
			}
		}
	}
}

// TestRandomMixedProcessStyles cross-checks that the same random function
// computed three ways — continuous assign, always @(*) with a case-free
// body, and a two-way split through a helper wire — produces identical
// traces.
func TestRandomMixedProcessStyles(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	g := &exprGen{rng: rng}
	for trial := 0; trial < 20; trial++ {
		expr, _ := g.gen(3)
		styles := []string{
			fmt.Sprintf(`
module top_module (
    input [7:0] a,
    input [7:0] b,
    output [7:0] y
);
    assign y = %s;
endmodule
`, expr),
			fmt.Sprintf(`
module top_module (
    input [7:0] a,
    input [7:0] b,
    output reg [7:0] y
);
    always @(*)
        y = %s;
endmodule
`, expr),
			fmt.Sprintf(`
module top_module (
    input [7:0] a,
    input [7:0] b,
    output [7:0] y
);
    wire [7:0] t;
    assign t = %s;
    assign y = t;
endmodule
`, expr),
		}
		var results []uint64
		for si, src := range styles {
			parsed, err := parser.Parse(src)
			if err != nil {
				t.Fatalf("style %d: %v", si, err)
			}
			s, err := New(parsed, "top_module")
			if err != nil {
				t.Fatalf("style %d: %v", si, err)
			}
			if err := s.SetInputUint("a", 0xA7); err != nil {
				t.Fatal(err)
			}
			if err := s.SetInputUint("b", 0x3C); err != nil {
				t.Fatal(err)
			}
			if err := s.Settle(); err != nil {
				t.Fatalf("style %d: %v\n%s", si, err, src)
			}
			v, err := s.Output("y")
			if err != nil {
				t.Fatal(err)
			}
			u, ok := v.Uint64()
			if !ok {
				t.Fatalf("style %d produced X: %s\nexpr %s", si, v, expr)
			}
			results = append(results, u)
		}
		if results[0] != results[1] || results[1] != results[2] {
			t.Fatalf("styles disagree: %v\nexpr: %s", results, expr)
		}
	}
}

// TestWideVectorOperations exercises >64-bit vectors end to end.
func TestWideVectorOperations(t *testing.T) {
	src := `
module top_module (
    input [99:0] in,
    output [99:0] rev,
    output [99:0] sum
);
    integer i;
    reg [99:0] r;
    always @(*) begin
        for (i = 0; i < 100; i = i + 1)
            r[99 - i] = in[i];
    end
    assign rev = r;
    assign sum = in + 100'd1;
endmodule
`
	s := mustElab(t, src, "top_module")
	// in = 1 (bit 0 set) -> rev has bit 99 set; sum = 2.
	if err := s.SetInput("in", NewKnown(100, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	rev, err := s.Output("rev")
	if err != nil {
		t.Fatal(err)
	}
	if rev.Bit(99) != '1' {
		t.Errorf("rev bit 99 = %c", rev.Bit(99))
	}
	for i := 0; i < 99; i++ {
		if rev.Bit(i) != '0' {
			t.Errorf("rev bit %d = %c, want 0", i, rev.Bit(i))
		}
	}
	sum, err := s.Output("sum")
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := sum.Uint64(); !ok || u != 2 {
		t.Errorf("sum = %s", sum)
	}
	// All-ones + 1 wraps to zero at 100 bits.
	ones := Not(NewKnown(100, 0))
	if err := s.SetInput("in", ones); err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	sum2, _ := s.Output("sum")
	if !sum2.IsZero() {
		t.Errorf("wrap: sum = %s", sum2)
	}
}

// TestTraceStability re-runs a full suite member many times and confirms the
// trace never varies (no map-iteration nondeterminism in the engine).
func TestTraceStability(t *testing.T) {
	src := `
module top_module (
    input clk,
    input reset,
    input [3:0] d,
    output reg [3:0] q,
    output [3:0] inv
);
    always @(posedge clk) begin
        if (reset)
            q <= 4'd0;
        else
            q <= q ^ d;
    end
    assign inv = ~q;
endmodule
`
	var ref []string
	for rep := 0; rep < 10; rep++ {
		s := mustElab(t, src, "top_module")
		if err := s.SetInputUint("clk", 0); err != nil {
			t.Fatal(err)
		}
		if err := s.SetInputUint("reset", 1); err != nil {
			t.Fatal(err)
		}
		if err := s.Tick("clk"); err != nil {
			t.Fatal(err)
		}
		if err := s.SetInputUint("reset", 0); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for c := 0; c < 8; c++ {
			if err := s.SetInputUint("d", uint64(c*5)%16); err != nil {
				t.Fatal(err)
			}
			if err := s.Tick("clk"); err != nil {
				t.Fatal(err)
			}
			q, _ := s.Output("q")
			inv, _ := s.Output("inv")
			lines = append(lines, q.String()+inv.String())
		}
		got := strings.Join(lines, "|")
		if rep == 0 {
			ref = lines
			continue
		}
		if got != strings.Join(ref, "|") {
			t.Fatalf("rep %d trace differs", rep)
		}
	}
}

// --- Interpreter vs compiled differential harness ---------------------------------
//
// Every design generated below runs on both engines — the AST-walking
// interpreter and the register-file kernels — under identical stimulus, and
// every output must agree bit-exactly in all four states (compared via
// Value.String, which encodes width and each 0/1/x/z bit).

// diffPair holds one design elaborated on both backends.
type diffPair struct {
	interp   *Simulator
	compiled *Engine // register-file lowering
}

// newDiffPair elaborates src under both backends, failing the test if
// either rejects the design.
func newDiffPair(t *testing.T, src, top string) *diffPair {
	t.Helper()
	parsed, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	s, err := New(parsed, top)
	if err != nil {
		t.Fatalf("interpreter elaborate: %v\n%s", err, src)
	}
	d, err := Compile(parsed, top)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	return &diffPair{interp: s, compiled: d.NewEngine()}
}

// backends lists the engines with their labels, interpreter first (it is
// the reference the compiled engine is compared against).
func (dp *diffPair) backends() []struct {
	name string
	ins  Instance
} {
	return []struct {
		name string
		ins  Instance
	}{
		{"interp", dp.interp},
		{"compiled", dp.compiled},
	}
}

// drive applies one input to every backend.
func (dp *diffPair) drive(t *testing.T, name string, v Value) {
	t.Helper()
	for _, b := range dp.backends() {
		if err := b.ins.SetInput(name, v); err != nil {
			t.Fatalf("%s SetInput(%s): %v", b.name, name, err)
		}
	}
}

// settle settles every backend; all must agree on convergence.
func (dp *diffPair) settle(t *testing.T, src string) {
	t.Helper()
	errI := dp.interp.Settle()
	for _, b := range dp.backends()[1:] {
		errC := b.ins.Settle()
		if (errI == nil) != (errC == nil) {
			t.Fatalf("settle divergence: interp=%v %s=%v\n%s", errI, b.name, errC, src)
		}
	}
	if errI != nil {
		t.Fatalf("settle: %v\n%s", errI, src)
	}
}

// tick runs one clock cycle on every backend.
func (dp *diffPair) tick(t *testing.T, clock, src string) {
	t.Helper()
	errI := dp.interp.Tick(clock)
	for _, b := range dp.backends()[1:] {
		errC := b.ins.Tick(clock)
		if (errI == nil) != (errC == nil) {
			t.Fatalf("tick divergence: interp=%v %s=%v\n%s", errI, b.name, errC, src)
		}
	}
	if errI != nil {
		t.Fatalf("tick: %v\n%s", errI, src)
	}
}

// compareOutputs asserts bit-exact four-state equality of every output,
// and that the compiled engine's streaming HashOutput digest matches the
// FNV-1a hash of the printed string — the equivalence the fingerprint
// ranking path relies on — at the natural width and a wider one (covering
// the beyond-width zero-extension rule).
func (dp *diffPair) compareOutputs(t *testing.T, label, src string) {
	t.Helper()
	for _, out := range dp.interp.Outputs() {
		vi, err := dp.interp.Output(out.Name)
		if err != nil {
			t.Fatalf("interp Output(%s): %v", out.Name, err)
		}
		for _, b := range dp.backends()[1:] {
			vc, err := b.ins.Output(out.Name)
			if err != nil {
				t.Fatalf("%s Output(%s): %v", b.name, out.Name, err)
			}
			if vi.String() != vc.String() {
				t.Fatalf("%s: output %s diverges: interp=%s %s=%s\n%s",
					label, out.Name, vi, b.name, vc, src)
			}
			en, ok := b.ins.(*Engine)
			if !ok {
				continue
			}
			idx, err := en.OutputHandle(out.Name)
			if err != nil {
				t.Fatalf("%s OutputHandle(%s): %v", b.name, out.Name, err)
			}
			for _, w := range []int{vc.Width(), vc.Width() + 3} {
				got := en.HashOutputH(FNVOffset64, idx, w)
				if want := fnvTest(FNVOffset64, vc.Resize(w).String()); got != want {
					t.Fatalf("%s: output %s streaming hash diverges from printed hash at width %d (%s)\n%s",
						label, out.Name, w, vc.Resize(w), src)
				}
			}
		}
	}
}

// fnvTest is the reference FNV-1a fold the streaming digest must match.
func fnvTest(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return h
}

// randFourState returns a width-bit value where each bit is 0/1/x/z with the
// given probability of being unknown.
func randFourState(rng *rand.Rand, width int, pUnknown float64) Value {
	v := NewKnown(width, 0)
	for i := 0; i < width; i++ {
		switch {
		case rng.Float64() < pUnknown:
			if rng.Intn(2) == 0 {
				v.setBit(i, 'x')
			} else {
				v.setBit(i, 'z')
			}
		case rng.Intn(2) == 0:
			v.setBit(i, '1')
		default:
			v.setBit(i, '0')
		}
	}
	return v
}

// richExprGen generates expressions over arbitrary named operands of one
// width (8 bits unless width is set, and at least 8) using the full
// supported operator set (no Go reference needed: the backends referee each
// other).
type richExprGen struct {
	rng   *rand.Rand
	vars  []string
	width int
}

func (g *richExprGen) gen(depth int) string {
	w := g.width
	if w == 0 {
		w = 8
	}
	if depth <= 0 || g.rng.Float64() < 0.2 {
		switch g.rng.Intn(4) {
		case 0:
			return fmt.Sprintf("%d'd%d", w, g.rng.Intn(256))
		case 1:
			return fmt.Sprintf("%d'b%03b", w, g.rng.Intn(8))
		default:
			return g.vars[g.rng.Intn(len(g.vars))]
		}
	}
	v := g.vars[g.rng.Intn(len(g.vars))]
	switch g.rng.Intn(16) {
	case 0:
		return "(~" + g.gen(depth-1) + ")"
	case 1:
		ops := []string{"+", "-", "*", "&", "|", "^", "~^"}
		return "(" + g.gen(depth-1) + " " + ops[g.rng.Intn(len(ops))] + " " + g.gen(depth-1) + ")"
	case 2:
		ops := []string{"<", "<=", ">", ">=", "==", "!=", "===", "!=="}
		return fmt.Sprintf("{%d{(", w) + g.gen(depth-1) + " " + ops[g.rng.Intn(len(ops))] + " " + g.gen(depth-1) + ")}}"
	case 3:
		ops := []string{"&&", "||"}
		return fmt.Sprintf("{%d{(", w) + g.gen(depth-1) + " " + ops[g.rng.Intn(len(ops))] + " " + g.gen(depth-1) + ")}}"
	case 4:
		return fmt.Sprintf("(%s << %d)", g.gen(depth-1), g.rng.Intn(w+1))
	case 5:
		return fmt.Sprintf("(%s >> %d)", g.gen(depth-1), g.rng.Intn(w+1))
	case 6:
		return fmt.Sprintf("(%s >>> %d)", g.gen(depth-1), g.rng.Intn(w+1))
	case 7:
		return "(" + g.gen(depth-1) + " ? " + g.gen(depth-1) + " : " + g.gen(depth-1) + ")"
	case 8:
		hi := g.rng.Intn(w)
		lo := g.rng.Intn(hi + 1)
		if hi-lo == w-1 {
			return fmt.Sprintf("%s[%d:0]", v, w-1) // no zero-width padding literal
		}
		return fmt.Sprintf("{%d'd0, %s[%d:%d]}", w-(hi-lo+1), v, hi, lo)
	case 9:
		return fmt.Sprintf("{%d'd0, %s[%d]}", w-1, v, g.rng.Intn(w))
	case 10:
		return fmt.Sprintf("{%d'd0, %s[%s[2:0]]}", w-1, v, g.vars[g.rng.Intn(len(g.vars))])
	case 11:
		return fmt.Sprintf("{%s[%d:0], %s[%d:%d]}", g.gen(depth-1), w/2-1, g.gen(depth-1), w-1, w/2)
	case 12:
		red := []string{"&", "|", "^", "~&", "~|", "~^"}
		return fmt.Sprintf("{%d'd0, %s%s}", w-1, red[g.rng.Intn(len(red))], v)
	case 13:
		return fmt.Sprintf("{%d{!(", w) + g.gen(depth-1) + ")}}"
	case 14:
		return fmt.Sprintf("(%s %% (%d'd%d))", g.gen(depth-1), w, 1+g.rng.Intn(15))
	default:
		return fmt.Sprintf("(%s / (%d'd%d))", g.gen(depth-1), w, 1+g.rng.Intn(15))
	}
}

// TestDifferentialCombinational runs randomly generated combinational
// designs with the full operator mix through both backends under known and
// four-state stimulus.
func TestDifferentialCombinational(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	g := &richExprGen{rng: rng, vars: []string{"a", "b"}}
	designs := 0
	for trial := 0; trial < 60; trial++ {
		src := fmt.Sprintf(`
module top_module (
    input [7:0] a,
    input [7:0] b,
    output [7:0] y,
    output [7:0] z
);
    assign y = %s;
    assign z = %s;
endmodule
`, g.gen(3), g.gen(2))
		dp := newDiffPair(t, src, "top_module")
		designs++
		for vec := 0; vec < 10; vec++ {
			dp.drive(t, "a", NewKnown(8, rng.Uint64()&0xFF))
			dp.drive(t, "b", NewKnown(8, rng.Uint64()&0xFF))
			dp.settle(t, src)
			dp.compareOutputs(t, fmt.Sprintf("trial %d vec %d", trial, vec), src)
		}
		for vec := 0; vec < 6; vec++ {
			dp.drive(t, "a", randFourState(rng, 8, 0.3))
			dp.drive(t, "b", randFourState(rng, 8, 0.3))
			dp.settle(t, src)
			dp.compareOutputs(t, fmt.Sprintf("trial %d xvec %d", trial, vec), src)
		}
	}
	t.Logf("differential combinational designs: %d", designs)
}

// TestDifferentialProcessStyles cross-checks the backends over the same
// function expressed as a continuous assign, an always @(*) block, and a
// split through a helper wire.
func TestDifferentialProcessStyles(t *testing.T) {
	rng := rand.New(rand.NewSource(888))
	g := &richExprGen{rng: rng, vars: []string{"a", "b"}}
	designs := 0
	for trial := 0; trial < 20; trial++ {
		expr := g.gen(3)
		styles := []string{
			fmt.Sprintf(`
module top_module (
    input [7:0] a,
    input [7:0] b,
    output [7:0] y
);
    assign y = %s;
endmodule
`, expr),
			fmt.Sprintf(`
module top_module (
    input [7:0] a,
    input [7:0] b,
    output reg [7:0] y
);
    always @(*)
        y = %s;
endmodule
`, expr),
			fmt.Sprintf(`
module top_module (
    input [7:0] a,
    input [7:0] b,
    output [7:0] y
);
    wire [7:0] t;
    assign t = %s;
    assign y = t;
endmodule
`, expr),
		}
		for si, src := range styles {
			dp := newDiffPair(t, src, "top_module")
			designs++
			for vec := 0; vec < 8; vec++ {
				dp.drive(t, "a", randFourState(rng, 8, 0.15))
				dp.drive(t, "b", randFourState(rng, 8, 0.15))
				dp.settle(t, src)
				dp.compareOutputs(t, fmt.Sprintf("trial %d style %d vec %d", trial, si, vec), src)
			}
		}
	}
	t.Logf("differential style designs: %d", designs)
}

// TestDifferentialSequential runs randomly generated clocked designs (state
// register + combinational decode, behavioral if/case/for mix) through both
// backends across full reset-plus-random-stimulus sequences.
func TestDifferentialSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(999))
	g := &richExprGen{rng: rng, vars: []string{"a", "b", "q"}}
	designs := 0
	for trial := 0; trial < 30; trial++ {
		var body string
		switch trial % 3 {
		case 0:
			body = fmt.Sprintf("q <= %s;", g.gen(3))
		case 1:
			body = fmt.Sprintf(`case (q[1:0])
                2'd0: q <= %s;
                2'd1: q <= %s;
                default: q <= %s;
            endcase`, g.gen(2), g.gen(2), g.gen(2))
		default:
			body = fmt.Sprintf(`begin
                for (i = 0; i < 4; i = i + 1)
                    acc[i] = a[i] ^ q[i];
                q <= %s + {4'd0, acc};
            end`, g.gen(2))
		}
		decl := ""
		if trial%3 == 2 {
			decl = "integer i;\n    reg [3:0] acc;"
		}
		src := fmt.Sprintf(`
module top_module (
    input clk,
    input reset,
    input [7:0] a,
    input [7:0] b,
    output reg [7:0] q,
    output [7:0] y
);
    %s
    always @(posedge clk) begin
        if (reset)
            q <= 8'd%d;
        else
            %s
    end
    assign y = %s;
endmodule
`, decl, rng.Intn(256), body, g.gen(2))
		dp := newDiffPair(t, src, "top_module")
		designs++
		dp.drive(t, "clk", NewKnown(1, 0))
		dp.drive(t, "reset", NewKnown(1, 1))
		dp.drive(t, "a", NewKnown(8, 0))
		dp.drive(t, "b", NewKnown(8, 0))
		dp.tick(t, "clk", src)
		dp.tick(t, "clk", src)
		dp.compareOutputs(t, fmt.Sprintf("trial %d reset", trial), src)
		dp.drive(t, "reset", NewKnown(1, 0))
		for step := 0; step < 10; step++ {
			dp.drive(t, "a", NewKnown(8, rng.Uint64()&0xFF))
			dp.drive(t, "b", NewKnown(8, rng.Uint64()&0xFF))
			dp.tick(t, "clk", src)
			dp.compareOutputs(t, fmt.Sprintf("trial %d step %d", trial, step), src)
		}
	}
	t.Logf("differential sequential designs: %d", designs)
}
