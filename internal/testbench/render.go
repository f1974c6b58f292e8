package testbench

import (
	"fmt"
	"strings"
)

// RenderVerilog materializes a stimulus as real Verilog testbench source —
// the textual form the paper's CorrectBench-generated testbenches take. The
// rendered bench instantiates the DUT, drives every case, and $displays all
// outputs after each step without judging them (printing testbench).
//
// The output targets standard simulators (e.g. Icarus Verilog) for export
// and inspection; the in-process simulator drives stimuli directly through
// the API instead.
func RenderVerilog(st *Stimulus, dutModule string) string {
	var b strings.Builder
	ifc := st.Ifc

	b.WriteString("`timescale 1ns/1ps\n")
	b.WriteString("module tb;\n")
	for _, in := range ifc.Inputs {
		if in.Width > 1 {
			fmt.Fprintf(&b, "    reg [%d:0] %s;\n", in.Width-1, in.Name)
		} else {
			fmt.Fprintf(&b, "    reg %s;\n", in.Name)
		}
	}
	for _, out := range ifc.Outputs {
		if out.Width > 1 {
			fmt.Fprintf(&b, "    wire [%d:0] %s;\n", out.Width-1, out.Name)
		} else {
			fmt.Fprintf(&b, "    wire %s;\n", out.Name)
		}
	}
	b.WriteString("\n")

	// DUT instantiation by name.
	fmt.Fprintf(&b, "    %s dut (", dutModule)
	first := true
	for _, p := range ifc.Inputs {
		if !first {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, ".%s(%s)", p.Name, p.Name)
		first = false
	}
	for _, p := range ifc.Outputs {
		if !first {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, ".%s(%s)", p.Name, p.Name)
		first = false
	}
	b.WriteString(");\n\n")

	if ifc.Sequential() {
		fmt.Fprintf(&b, "    always #5 %s = ~%s;\n\n", ifc.Clock, ifc.Clock)
	}

	// Display format: one line per step listing every output in binary.
	var fmtParts []string
	var fmtArgs []string
	for _, out := range ifc.Outputs {
		fmtParts = append(fmtParts, out.Name+"=%b")
		fmtArgs = append(fmtArgs, out.Name)
	}
	displayLine := fmt.Sprintf("$display(\"case %%0d step %%0d: %s\", case_i, step_i, %s);",
		strings.Join(fmtParts, " "), strings.Join(fmtArgs, ", "))

	b.WriteString("    integer case_i, step_i;\n")
	b.WriteString("    initial begin\n")
	if ifc.Sequential() {
		fmt.Fprintf(&b, "        %s = 0;\n", ifc.Clock)
	}
	for ci := 0; ci < st.NumCases(); ci++ {
		c := st.Case(ci)
		fmt.Fprintf(&b, "        case_i = %d;\n", ci)
		for si, step := range c.Steps {
			fmt.Fprintf(&b, "        step_i = %d;\n", si)
			for _, in := range ifc.Inputs {
				if in.Name == ifc.Clock {
					continue
				}
				v, ok := step.Inputs[in.Name]
				if !ok {
					continue
				}
				fmt.Fprintf(&b, "        %s = %s;\n", in.Name, v.String())
			}
			if ifc.Sequential() {
				b.WriteString("        @(posedge " + ifc.Clock + "); #1;\n")
			} else {
				b.WriteString("        #10;\n")
			}
			b.WriteString("        " + displayLine + "\n")
		}
	}
	b.WriteString("        $finish;\n")
	b.WriteString("    end\n")
	b.WriteString("endmodule\n")
	return b.String()
}
