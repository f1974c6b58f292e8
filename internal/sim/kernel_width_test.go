package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/verilog/parser"
)

// kernelWidths are the word-boundary widths every kernel must survive: a
// single bit, one bit below/at/above the 64-bit word boundary, and a full
// two-word vector.
var kernelWidths = []int{1, 63, 64, 65, 128}

// twoWay elaborates one source on the interpreter and the register-file
// compiler, and replays identical stimulus on both, requiring bit-exact
// four-state agreement on every output after every step. It is the backbone
// of the width tests below and of the random differential harness.
type twoWay struct {
	src     string
	interp  *Simulator
	regfile *Engine
}

// compileForTest lowers src to the register file, failing the test if the
// design does not compile (ErrUnsupported included).
func compileForTest(t *testing.T, src, top string) *Design {
	t.Helper()
	parsed, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	s, err := New(parsed, top)
	if err != nil {
		t.Fatalf("elaborate: %v\n%s", err, src)
	}
	d, err := compileFrom(s)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	return d
}

func newTwoWay(t *testing.T, src, top string) *twoWay {
	t.Helper()
	parsed, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	interp, err := New(parsed, top)
	if err != nil {
		t.Fatalf("interpreter elaborate: %v\n%s", err, src)
	}
	return &twoWay{
		src:     src,
		interp:  interp,
		regfile: compileForTest(t, src, top).NewEngine(),
	}
}

func (tw *twoWay) instances() []struct {
	name string
	ins  Instance
} {
	return []struct {
		name string
		ins  Instance
	}{
		{"interpreter", tw.interp},
		{"regfile", tw.regfile},
	}
}

func (tw *twoWay) drive(t *testing.T, name string, v Value) {
	t.Helper()
	for _, b := range tw.instances() {
		if err := b.ins.SetInput(name, v); err != nil {
			t.Fatalf("%s SetInput(%s): %v", b.name, name, err)
		}
	}
}

func (tw *twoWay) settle(t *testing.T) {
	t.Helper()
	var firstErr error
	for i, b := range tw.instances() {
		err := b.ins.Settle()
		if i == 0 {
			firstErr = err
		} else if (err == nil) != (firstErr == nil) {
			t.Fatalf("settle divergence: interpreter=%v %s=%v\n%s", firstErr, b.name, err, tw.src)
		}
	}
	if firstErr != nil {
		t.Fatalf("settle: %v\n%s", firstErr, tw.src)
	}
}

func (tw *twoWay) tick(t *testing.T, clock string) {
	t.Helper()
	var firstErr error
	for i, b := range tw.instances() {
		err := b.ins.Tick(clock)
		if i == 0 {
			firstErr = err
		} else if (err == nil) != (firstErr == nil) {
			t.Fatalf("tick divergence: interpreter=%v %s=%v\n%s", firstErr, b.name, err, tw.src)
		}
	}
	if firstErr != nil {
		t.Fatalf("tick: %v\n%s", firstErr, tw.src)
	}
}

func (tw *twoWay) compare(t *testing.T, label string) {
	t.Helper()
	for _, out := range tw.interp.Outputs() {
		ref, err := tw.interp.Output(out.Name)
		if err != nil {
			t.Fatalf("interpreter Output(%s): %v", out.Name, err)
		}
		want := ref.String()
		for _, b := range tw.instances()[1:] {
			got, err := b.ins.Output(out.Name)
			if err != nil {
				t.Fatalf("%s Output(%s): %v", b.name, out.Name, err)
			}
			if got.String() != want {
				t.Fatalf("%s: output %s diverges on %s: interpreter=%s got=%s\n%s",
					label, out.Name, b.name, want, got, tw.src)
			}
		}
	}
}

// kernelTemplate produces one width-parameterized module exercising a
// kernel family. Inputs are always a and b of the given width (plus clk for
// sequential templates).
type kernelTemplate struct {
	name string
	seq  bool
	src  func(w int) string
}

func kernelTemplates() []kernelTemplate {
	comb := func(name, body string) kernelTemplate {
		return kernelTemplate{name: name, src: func(w int) string {
			return fmt.Sprintf(`
module top_module (
    input [%[1]d:0] a,
    input [%[1]d:0] b,
    output [%[1]d:0] y
);
    %[2]s
endmodule
`, w-1, body)
		}}
	}
	return []kernelTemplate{
		comb("add", "assign y = a + b;"),
		comb("sub", "assign y = a - b;"),
		comb("mul", "assign y = a * b;"),
		comb("div", "assign y = a / ((b == 0) ? {a, 1'b1} : b);"),
		comb("mod", "assign y = a % ((b == 0) ? {a, 1'b1} : b);"),
		comb("divzero", "assign y = a / b;"),
		comb("neg_not", "assign y = (-a) ^ (~b);"),
		comb("bitops", "assign y = (a & b) | (a ^ b) | (a ~^ b);"),
		comb("shl_dyn", "assign y = a << b[7:0];"),
		comb("shr_dyn", "assign y = a >> b[7:0];"),
		comb("ashr_dyn", "assign y = a >>> b[7:0];"),
		comb("shl_wide_amount", "assign y = a << b;"),
		comb("compare", "assign y = {a < b, a <= b, a > b, a >= b, a == b, a != b, a === b, a !== b};"),
		comb("logical", "assign y = {a && b, a || b, !a};"),
		comb("reduce", "assign y = {&a, |a, ^a, ~&a, ~|a, ~^a};"),
		comb("ternary", "assign y = b[0] ? a + b : a - b;"),
		comb("concat_swap", "assign y = {a, b} >> b[6:0];"),
		{name: "repl", src: func(w int) string {
			return fmt.Sprintf(`
module top_module (
    input [%[1]d:0] a,
    input [%[1]d:0] b,
    output [%[2]d:0] y
);
    assign y = {%[3]d{a[1:0]}};
endmodule
`, w-1, 2*w-1, w)
		}},
		{name: "partsel_const", src: func(w int) string {
			hi := w - 1
			lo := w / 2
			return fmt.Sprintf(`
module top_module (
    input [%[1]d:0] a,
    input [%[1]d:0] b,
    output [%[2]d:0] y
);
    assign y = a[%[3]d:%[4]d] ^ b[%[3]d:%[4]d];
endmodule
`, w-1, hi-lo, hi, lo)
		}},
		{name: "index_dyn", src: func(w int) string {
			return fmt.Sprintf(`
module top_module (
    input [%[1]d:0] a,
    input [%[1]d:0] b,
    output y
);
    assign y = a[b[7:0]];
endmodule
`, w-1)
		}},
		{name: "partsel_indexed", src: func(w int) string {
			take := w
			if take > 8 {
				take = 8
			}
			return fmt.Sprintf(`
module top_module (
    input [%[1]d:0] a,
    input [%[1]d:0] b,
    output [%[2]d:0] y,
    output [%[2]d:0] z
);
    assign y = a[b[6:0] +: %[3]d];
    assign z = a[b[6:0] -: %[3]d];
endmodule
`, w-1, take-1, take)
		}},
		{name: "lvalue_slices", seq: true, src: func(w int) string {
			hi := w - 1
			mid := w / 2
			return fmt.Sprintf(`
module top_module (
    input clk,
    input [%[1]d:0] a,
    input [%[1]d:0] b,
    output reg [%[1]d:0] y,
    output reg [%[1]d:0] z
);
    always @(posedge clk) begin
        y[%[2]d:%[3]d] <= a[%[2]d:%[3]d] + b[%[2]d:%[3]d];
        y[0] <= a[0] ^ b[0];
        z <= {y[%[3]d +: 1], y[%[1]d:1]};
    end
endmodule
`, hi, hi, mid)
		}},
		{name: "self_move", seq: true, src: func(w int) string {
			hi := w - 1
			mid := w / 2
			return fmt.Sprintf(`
module top_module (
    input clk,
    input [%[1]d:0] a,
    input [%[1]d:0] b,
    output reg [%[1]d:0] y
);
    always @(posedge clk) begin
        y = y ^ a;
        y[%[2]d:%[3]d] = y[%[2]d-%[3]d:0];
        y = y + b;
    end
endmodule
`, hi, hi, mid)
		}},
	}
}

// TestKernelWidthBoundaries runs every kernel family at every boundary
// width on the interpreter and the register file under known and four-state
// stimulus.
func TestKernelWidthBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	for _, tmpl := range kernelTemplates() {
		for _, w := range kernelWidths {
			if tmpl.seq && w == 1 {
				continue // the slice-shuffling sequential templates need ≥ 2 bits
			}
			label := fmt.Sprintf("%s/w%d", tmpl.name, w)
			src := tmpl.src(w)
			tw := newTwoWay(t, src, "top_module")
			if tmpl.seq {
				tw.drive(t, "clk", NewKnown(1, 0))
			}
			step := func(av, bv Value, vec string) {
				tw.drive(t, "a", av)
				tw.drive(t, "b", bv)
				if tmpl.seq {
					tw.tick(t, "clk")
				} else {
					tw.settle(t)
				}
				tw.compare(t, label+"/"+vec)
			}
			// Corners: zero, all-ones, one-hot at word boundaries.
			ones := Not(NewKnown(w, 0))
			step(NewKnown(w, 0), NewKnown(w, 0), "zero")
			step(ones, ones, "ones")
			step(ones, NewKnown(w, 1), "ones_one")
			for _, bit := range []int{0, w / 2, w - 1} {
				oneHot := NewKnown(w, 0)
				oneHot.setBit(bit, '1')
				step(oneHot, ones, fmt.Sprintf("hot%d", bit))
			}
			// Random known vectors.
			for vec := 0; vec < 8; vec++ {
				step(randFourState(rng, w, 0), randFourState(rng, w, 0), fmt.Sprintf("rand%d", vec))
			}
			// Four-state vectors.
			for vec := 0; vec < 6; vec++ {
				step(randFourState(rng, w, 0.25), randFourState(rng, w, 0.25), fmt.Sprintf("xz%d", vec))
			}
		}
	}
}

// TestRegfileCoverageOnGoldens asserts the register file carries the real
// workload: every golden design in the width templates compiles, none of
// them refused with ErrUnsupported (the eval suite equivalent lives in
// internal/eval's trace tests, which would fail loudly on semantic drift).
func TestRegfileCoverageOnGoldens(t *testing.T) {
	for _, tmpl := range kernelTemplates() {
		compileForTest(t, tmpl.src(64), "top_module")
	}
}

// TestConcatLValueIndexReadsOldValue pins the lvalue resolution order: all
// targets of a concat lvalue resolve before any store, so an index
// expression in a later part reads the value from before the assignment
// even when an earlier part writes that index net ({i, a[i]} = ...).
func TestConcatLValueIndexReadsOldValue(t *testing.T) {
	src := `
module top_module (
    input [7:0] x,
    output reg [2:0] i,
    output reg [7:0] a
);
    always @(*) begin
        a = 8'd0;
        i = x[6:4];
        {i, a[i]} = {x[2:0], x[3]};
    end
endmodule
`
	tw := newTwoWay(t, src, "top_module")
	rng := rand.New(rand.NewSource(31))
	for vec := 0; vec < 16; vec++ {
		tw.drive(t, "x", NewKnown(8, rng.Uint64()))
		tw.settle(t)
		tw.compare(t, fmt.Sprintf("vec%d", vec))
	}
}

// TestPooledEngineSurvivesProcessError guards the engine pool against
// scheduler poisoning: a run that errors mid-batch (leaving unprocessed
// processes flagged as queued) must not suppress those processes after the
// engine is released and reacquired.
func TestPooledEngineSurvivesProcessError(t *testing.T) {
	src := `
module top_module (
    input [7:0] x,
    output [7:0] z
);
    reg [7:0] tr;
    integer j;
    always @(*) begin
        tr = x;
        if (x[7])
            for (j = 0; j < 100000; j = j + 1)
                tr = tr + 8'd1;
    end
    assign z = x ^ 8'h55;
endmodule
`
	d := compileForTest(t, src, "top_module")
	en := d.AcquireEngine()
	if err := en.SetInputUint("x", 0x80); err != nil {
		t.Fatal(err)
	}
	if err := en.Settle(); err == nil {
		t.Fatal("expected a loop-limit error with x[7] set")
	}
	d.ReleaseEngine(en)

	en2 := d.AcquireEngine()
	defer d.ReleaseEngine(en2)
	if err := en2.SetInputUint("x", 1); err != nil {
		t.Fatal(err)
	}
	if err := en2.Settle(); err != nil {
		t.Fatalf("recycled engine failed a clean run: %v", err)
	}
	z, err := en2.Output("z")
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := z.Uint64(); !ok || u != 1^0x55 {
		t.Fatalf("recycled engine suppressed a process: z = %s, want 8'd%d", z, 1^0x55)
	}
}

// TestHugeDynamicLValueOffsetDropsWrite pins WriteBits drop semantics for
// dynamic lvalue offsets beyond 2^32: the store offset must not be
// truncated to 32 bits (which would wrap a far out-of-range write back
// into range), matching the interpreter's resolveLValue exactly.
func TestHugeDynamicLValueOffsetDropsWrite(t *testing.T) {
	src := `
module top_module (
    input [32:0] i,
    input [1:0] x,
    output reg [7:0] y
);
    always @(*) begin
        y = 8'h00;
        y[i +: 2] = x;
        y[i] = x[0];
    end
endmodule
`
	tw := newTwoWay(t, src, "top_module")
	for _, iv := range []uint64{0, 3, 6, 1 << 32, 1<<32 | 2, (1 << 33) - 1} {
		tw.drive(t, "i", NewKnown(33, iv))
		tw.drive(t, "x", NewKnown(2, 3))
		tw.settle(t)
		tw.compare(t, fmt.Sprintf("i=%d", iv))
	}
}

// TestEngineErrorsMatchInterpreter pins the stimulus-API error contract on
// the compiled engine: SetInputUint must reject unknown names and non-input
// nets exactly like the interpreter (TestErrorsAPI), so a candidate whose
// clock is not actually an input fails identically on both backends.
func TestEngineErrorsMatchInterpreter(t *testing.T) {
	src := `
module top_module (
    input a,
    output y
);
    assign y = a;
endmodule
`
	en := compileForTest(t, src, "top_module").NewEngine()
	if err := en.SetInputUint("ghost", 1); !errors.Is(err, ErrUnknownNet) {
		t.Errorf("SetInputUint unknown: %v", err)
	}
	if err := en.SetInputUint("y", 1); !errors.Is(err, ErrNotInput) {
		t.Errorf("SetInputUint on output: %v", err)
	}
	if err := en.SetInput("y", NewKnown(1, 1)); !errors.Is(err, ErrNotInput) {
		t.Errorf("SetInput on output: %v", err)
	}
	if err := en.Tick("y"); !errors.Is(err, ErrNotInput) {
		t.Errorf("Tick on output: %v", err)
	}
	if _, err := en.Output("ghost"); !errors.Is(err, ErrUnknownNet) {
		t.Errorf("Output unknown: %v", err)
	}
}
