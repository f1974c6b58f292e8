package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/verilog/parser"
)

// FuzzSimDifferential holds the compiled engine to the interpreter over the
// seeded random designs of random_expr_test.go. The fuzz input seeds both
// the designs and the stimulus, and picks the design kind and the operand
// width (fuzzWidths: one word, the word boundary, several words). Each input
// builds three designs of that kind and width:
// a random one, the same design with its internal net renamed (textually
// distinct, the same machine), and a second random one. Each runs under the
// interpreter and the compiled solo engine, whose outputs must agree in all
// four states after every step, and the renamed copy must fail exactly where
// the first design does and otherwise fold the same running case
// fingerprint after every step. A quarter of the designs hold a construct
// the register file cannot size; Compile must refuse exactly those with
// ErrUnsupported, and they run on the interpreter alone.
func FuzzSimDifferential(f *testing.F) {
	for _, seed := range []uint64{0, 1, 2, 777, 888, 999} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		kind, w := int(seed%3), fuzzWidths[seed/3%uint64(len(fuzzWidths))]
		tmpl, unsup := genFuzzDesign(rng, kind, w)
		other, otherUnsup := genFuzzDesign(rng, kind, w)
		srcs := []string{
			strings.ReplaceAll(tmpl, fuzzHelper, "hv"),
			strings.ReplaceAll(tmpl, fuzzHelper, "hv_r"),
			strings.ReplaceAll(other, fuzzHelper, "hv"),
		}
		unsupported := []bool{unsup, unsup, otherUnsup}
		seq := kind == 2
		st := genFuzzStim(rng, seq, w)
		refs := make([][][]uint64, len(srcs))
		fails := make([]int, len(srcs))
		for i, src := range srcs {
			refs[i], fails[i] = fuzzReference(t, src, seq, st, unsupported[i])
		}
		if fails[1] != fails[0] || !reflect.DeepEqual(refs[1], refs[0]) {
			t.Fatalf("seed %d: renaming the internal net changed the run (failed at %d, not %d)\n%s",
				seed, fails[1], fails[0], srcs[1])
		}
	})
}

// fuzzHelper is the placeholder name of a generated design's internal net.
const fuzzHelper = "@H"

// fuzzWidths are the operand widths a fuzz input chooses from.
var fuzzWidths = []int{8, 16, 63, 64, 65, 128, 130}

// genFuzzDesign renders one random design of the given kind and operand
// width w — 0: continuous
// assigns through an internal wire; 1: an always @(*) block with a blocking
// temporary and an if; 2: a clocked design with a for loop, a case and a
// reset — with its internal net named fuzzHelper. A quarter of the designs
// also carry a zero-delay oscillator that fails to converge whenever
// a[0] & b[0] is 1, so runs fail mid-run, and, drawn independently, a
// quarter fold one of fuzzUnsupported into their last output; unsupported
// reports those.
func genFuzzDesign(rng *rand.Rand, kind, w int) (src string, unsupported bool) {
	ab := &richExprGen{rng: rng, vars: []string{"a", "b"}, width: w}
	abh := &richExprGen{rng: rng, vars: []string{"a", "b", fuzzHelper}, width: w}
	osc := ""
	if rng.Intn(4) == 0 {
		osc = "wire osc;\n    assign osc = (a[0] & b[0]) ? ~osc : 1'b0;"
	}
	// last returns the last output's expression, folding in a construct
	// the register file refuses for a quarter of the designs.
	last := func(expr string) string {
		if rng.Intn(4) != 0 {
			return expr
		}
		unsupported = true
		return "(" + expr + ") ^ " + fuzzUnsupported[rng.Intn(len(fuzzUnsupported))]
	}
	switch kind {
	case 0:
		return fmt.Sprintf(`
module top_module (
    input [%[6]d:0] a,
    input [%[6]d:0] b,
    output [%[6]d:0] y,
    output [%[6]d:0] z
);
    wire [%[6]d:0] %[1]s;
    assign %[1]s = %[2]s;
    assign y = %[3]s;
    assign z = %[4]s;
    %[5]s
endmodule
`, fuzzHelper, ab.gen(3), abh.gen(3), last(ab.gen(2)), osc, w-1), unsupported
	case 1:
		return fmt.Sprintf(`
module top_module (
    input [%[7]d:0] a,
    input [%[7]d:0] b,
    output reg [%[7]d:0] y,
    output [%[7]d:0] z
);
    reg [%[7]d:0] %[1]s;
    always @(*) begin
        %[1]s = %[2]s;
        if (%[1]s[0])
            y = %[3]s;
        else
            y = %[4]s;
    end
    assign z = %[5]s;
    %[6]s
endmodule
`, fuzzHelper, ab.gen(3), abh.gen(2), abh.gen(2), last(ab.gen(2)), osc, w-1), unsupported
	default:
		abq := &richExprGen{rng: rng, vars: []string{"a", "b", "q"}, width: w}
		return fmt.Sprintf(`
module top_module (
    input clk,
    input reset,
    input [%[8]d:0] a,
    input [%[8]d:0] b,
    output reg [%[8]d:0] q,
    output [%[8]d:0] y
);
    integer i;
    reg [3:0] %[1]s;
    always @(posedge clk) begin
        if (reset)
            q <= %[9]d'd%[2]d;
        else begin
            for (i = 0; i < 4; i = i + 1)
                %[1]s[i] = a[i] ^ q[i];
            case (q[1:0])
                2'd0: q <= %[3]s;
                2'd1: q <= %[4]s + {%[10]d'd0, %[1]s};
                default: q <= %[5]s;
            endcase
        end
    end
    assign y = %[6]s;
    %[7]s
endmodule
`, fuzzHelper, rng.Intn(256), abq.gen(3), abq.gen(2), abq.gen(2), last(abq.gen(2)), osc, w-1, w, w-4), unsupported
	}
}

// fuzzUnsupported are the constructs the register file cannot size: a
// part-select with dynamic bounds, a replication with a non-constant count
// (known even when b is X, so the design elaborates), and an intermediate
// wider than maxRegCap.
var fuzzUnsupported = []string{
	"a[b[2:0] + 8'd3:b[2:0]]",
	"{(3'd1 + (b[0] === 1'b1)){a[3:0]}}",
	"{32769{a[1:0]}}",
}

// fuzzStim is a generated stimulus: cases of steps, each step one value per
// driven input (in inputs order). Sequential designs are clocked once per
// step; combinational ones settle.
type fuzzStim struct {
	inputs []string
	cases  [][][]Value
}

func genFuzzStim(rng *rand.Rand, seq bool, w int) *fuzzStim {
	st := &fuzzStim{inputs: []string{"a", "b"}}
	if seq {
		st.inputs = []string{"reset", "a", "b"}
	}
	st.cases = make([][][]Value, 1+rng.Intn(2))
	for c := range st.cases {
		st.cases[c] = make([][]Value, 3+rng.Intn(6))
		for s := range st.cases[c] {
			row := make([]Value, len(st.inputs))
			for i, name := range st.inputs {
				if name == "reset" {
					var r uint64
					if s == 0 || rng.Intn(8) == 0 {
						r = 1
					}
					row[i] = NewKnown(1, r)
					continue
				}
				row[i] = randFourState(rng, w, []float64{0, 0, 0.15, 0.3}[rng.Intn(4)])
			}
			st.cases[c][s] = row
		}
	}
	return st
}

// fuzzReference runs src under the interpreter and the compiled solo engine
// through st, with the testbench's lifecycle (sequential cases start from a
// fresh instance with the clock driven low, combinational ones share one
// instance), requiring four-state-exact outputs after every step. A design
// that holds an unsupported construct must be refused by Compile with
// ErrUnsupported, and runs on the interpreter alone. It returns the
// interpreter's running case fingerprint after every step, and the index
// (counted across cases) of the step at which the design failed, or -1.
func fuzzReference(t *testing.T, src string, seq bool, st *fuzzStim, unsupported bool) ([][]uint64, int) {
	t.Helper()
	parsed, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	d, err := Compile(parsed, "top_module")
	switch {
	case unsupported && !errors.Is(err, ErrUnsupported):
		t.Fatalf("compile of an unsupported construct: got %v, want ErrUnsupported\n%s", err, src)
	case !unsupported && err != nil:
		t.Fatalf("compile: %v\n%s", err, src)
	}
	names := []string{"interp", "compiled"}
	var ins []Instance
	var outputs []PortInfo
	fresh := func() {
		s, err := New(parsed, "top_module")
		if err != nil {
			t.Fatalf("interpreter elaborate: %v\n%s", err, src)
		}
		ins, outputs = []Instance{s}, s.outputs
		if d != nil {
			ins = append(ins, d.NewEngine())
		}
	}
	fps := make([][]uint64, len(st.cases))
	flat := 0
	for c, steps := range st.cases {
		if c == 0 || seq {
			fresh()
		}
		if seq {
			for _, in := range ins {
				if err := in.SetInputUint("clk", 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		h := FNVOffset64
		for si, row := range steps {
			var errs [2]error
			for k, in := range ins {
				for i, name := range st.inputs {
					if err := in.SetInput(name, row[i]); err != nil {
						t.Fatalf("%s SetInput(%s): %v", names[k], name, err)
					}
				}
				if seq {
					errs[k] = in.Tick("clk")
				} else {
					errs[k] = in.Settle()
				}
			}
			for k := 1; k < len(ins); k++ {
				if (errs[0] == nil) != (errs[k] == nil) {
					t.Fatalf("case %d step %d: interp=%v %s=%v\n%s", c, si, errs[0], names[k], errs[k], src)
				}
			}
			if errs[0] != nil {
				return fps, flat
			}
			for _, out := range outputs {
				want, err := ins[0].Output(out.Name)
				if err != nil {
					t.Fatal(err)
				}
				for k := 1; k < len(ins); k++ {
					if got, _ := ins[k].Output(out.Name); got.String() != want.String() {
						t.Fatalf("case %d step %d: output %s: interp=%s %s=%s\n%s",
							c, si, out.Name, want, names[k], got, src)
					}
				}
				h = (fnvTest(h, want.Resize(out.Width).String()) ^ uint64('\n')) * FNVPrime64
			}
			fps[c] = append(fps[c], h)
			flat++
		}
	}
	return fps, -1
}
