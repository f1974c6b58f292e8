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

// threeWay elaborates one source on the interpreter, the PR-1 boxed
// compiler, and the register-file compiler, and replays identical stimulus
// on all three, requiring bit-exact four-state agreement on every output
// after every step. It is the backbone of the width tests below and of the
// random differential harness.
type threeWay struct {
	src     string
	interp  *Simulator
	regfile *Engine
	boxed   *Engine
}

// compileForTest lowers src with the chosen strategy (forceBoxed drops every
// process to the PR-1 boxed path).
func compileForTest(t *testing.T, src, top string, forceBoxed bool) *Design {
	t.Helper()
	parsed, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	s, err := New(parsed, top)
	if err != nil {
		t.Fatalf("elaborate: %v\n%s", err, src)
	}
	d, err := compileFrom(s, forceBoxed)
	if err != nil {
		t.Fatalf("compile(forceBoxed=%v): %v\n%s", forceBoxed, err, src)
	}
	return d
}

func newThreeWay(t *testing.T, src, top string) *threeWay {
	t.Helper()
	parsed, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	interp, err := New(parsed, top)
	if err != nil {
		t.Fatalf("interpreter elaborate: %v\n%s", err, src)
	}
	return &threeWay{
		src:     src,
		interp:  interp,
		regfile: compileForTest(t, src, top, false).NewEngine(),
		boxed:   compileForTest(t, src, top, true).NewEngine(),
	}
}

func (tw *threeWay) instances() []struct {
	name string
	ins  Instance
} {
	return []struct {
		name string
		ins  Instance
	}{
		{"interpreter", tw.interp},
		{"regfile", tw.regfile},
		{"boxed", tw.boxed},
	}
}

func (tw *threeWay) drive(t *testing.T, name string, v Value) {
	t.Helper()
	for _, b := range tw.instances() {
		if err := b.ins.SetInput(name, v); err != nil {
			t.Fatalf("%s SetInput(%s): %v", b.name, name, err)
		}
	}
}

func (tw *threeWay) settle(t *testing.T) {
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

func (tw *threeWay) tick(t *testing.T, clock string) {
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

func (tw *threeWay) compare(t *testing.T, label string) {
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
// width through all three engines under known and four-state stimulus.
func TestKernelWidthBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	for _, tmpl := range kernelTemplates() {
		for _, w := range kernelWidths {
			if tmpl.seq && w == 1 {
				continue // the slice-shuffling sequential templates need ≥ 2 bits
			}
			label := fmt.Sprintf("%s/w%d", tmpl.name, w)
			src := tmpl.src(w)
			tw := newThreeWay(t, src, "top_module")
			if n := tw.regfile.Design().BoxedProcs(); n != 0 {
				t.Errorf("%s: %d processes fell back to the boxed path", label, n)
			}
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

// TestKernelWidthBoundariesBoxedFallback pins the fallback boundary: a
// dynamic [a:b] part-select cannot be statically sized, must lower via the
// boxed path, and must still agree with the interpreter.
func TestKernelWidthBoundariesBoxedFallback(t *testing.T) {
	src := `
module top_module (
    input [63:0] a,
    input [7:0] b,
    output [63:0] y
);
    wire [7:0] hi = b[2:0] + 8'd7;
    assign y = a[hi:b[2:0]];
endmodule
`
	tw := newThreeWay(t, src, "top_module")
	if n := tw.regfile.Design().BoxedProcs(); n == 0 {
		t.Fatalf("dynamic [a:b] part-select should use the boxed fallback")
	}
	rng := rand.New(rand.NewSource(7))
	for vec := 0; vec < 12; vec++ {
		tw.drive(t, "a", randFourState(rng, 64, 0.1))
		tw.drive(t, "b", NewKnown(8, rng.Uint64()))
		tw.settle(t)
		tw.compare(t, fmt.Sprintf("vec%d", vec))
	}
}

// TestRegfileCoverageOnGoldens asserts the register-file path carries the
// real workload: every golden design in the width templates compiles with
// zero boxed processes (the eval suite equivalent lives in internal/eval's
// trace tests, which would fail loudly on semantic drift).
func TestRegfileCoverageOnGoldens(t *testing.T) {
	var boxed, procs int
	for _, tmpl := range kernelTemplates() {
		src := tmpl.src(64)
		d := compileForTest(t, src, "top_module", false)
		boxed += d.BoxedProcs()
		procs += len(d.procs)
	}
	if boxed != 0 {
		t.Fatalf("%d of %d template processes fell back to the boxed path", boxed, procs)
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
	tw := newThreeWay(t, src, "top_module")
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
	d := compileForTest(t, src, "top_module", false)
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

// TestBoxedFallbackRollsBackFrameSpace guards the fallback path's frame
// hygiene: the scratch/constant words a failed register-file attempt
// allocated must be rolled back, so a process that drops to the boxed path
// costs the same frame space as compiling it boxed outright.
func TestBoxedFallbackRollsBackFrameSpace(t *testing.T) {
	src := `
module top_module (
    input [63:0] a,
    input [7:0] b,
    output [63:0] y
);
    wire [63:0] big = (a * a) + {8{b}} + 64'hFFFF_FFFF_FFFF_FFFF;
    assign y = big[b[2:0] + 8'd7:b[2:0]];
endmodule
`
	mixed := compileForTest(t, src, "top_module", false)
	boxed := compileForTest(t, src, "top_module", true)
	if mixed.BoxedProcs() == 0 {
		t.Fatal("expected the dynamic [a:b] select to use the boxed fallback")
	}
	// The failed regfile attempt on the y-process must not leave dead words
	// behind: its frame may exceed the all-boxed frame only by the scratch
	// of processes that DID lower to the register file (the `big` assign).
	if mixed.FrameWords() > boxed.FrameWords()+words(64)*16 {
		t.Fatalf("fallback leaked frame space: mixed=%d words, all-boxed=%d words",
			mixed.FrameWords(), boxed.FrameWords())
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
	tw := newThreeWay(t, src, "top_module")
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
	en := compileForTest(t, src, "top_module", false).NewEngine()
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
