package testbench

import (
	"strings"
	"testing"
)

func TestRenderVerilogComb(t *testing.T) {
	g := NewGenerator(1)
	st := g.Ranking(combIfc())
	out := RenderVerilog(st, "top_module")

	for _, want := range []string{
		"module tb;",
		"reg [1:0] a;",
		"reg b;",
		"wire [1:0] y;",
		"top_module dut (.a(a), .b(b), .y(y));",
		"$display(",
		"y=%b",
		"$finish;",
		"endmodule",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered testbench missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "posedge") {
		t.Error("combinational bench must not wait on a clock")
	}
	// One display per step.
	if got := strings.Count(out, "$display"); got != st.NumCases()+0 {
		// each comb case has exactly one step, plus the format line itself
		// appears once per step.
		if got != st.NumCases() {
			t.Errorf("%d $display calls for %d cases", got, st.NumCases())
		}
	}
}

func TestRenderVerilogSeq(t *testing.T) {
	g := NewGenerator(1)
	st := g.Ranking(seqIfc())
	out := RenderVerilog(st, "top_module")
	for _, want := range []string{
		"always #5 clk = ~clk;",
		"@(posedge clk); #1;",
		"reg clk;",
		"reg reset;",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered seq testbench missing %q", want)
		}
	}
	// The clock must not be driven procedurally inside the step sequence
	// (the always block owns it after init).
	if strings.Contains(out, "clk = 1'b") {
		t.Error("clock driven as a data input")
	}
}
