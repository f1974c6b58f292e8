package testbench

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/verilog/ast"
)

// accMinus and sumMinus are the same subtracting machine as gangSeqVariant
// with an internal register under two names: distinct designs with one
// behaviour.
const accMinus = `
module top_module (
    input clk,
    input reset,
    input [4:0] d,
    output [4:0] q,
    output [4:0] inv
);
    reg [4:0] acc;
    always @(posedge clk) begin
        if (reset) acc <= 5'd0;
        else acc <= acc - d;
    end
    assign q = acc;
    assign inv = ~acc;
endmodule
`

const sumMinus = `
module top_module (
    input clk,
    input reset,
    input [4:0] d,
    output [4:0] q,
    output [4:0] inv
);
    reg [4:0] sum;
    always @(posedge clk) begin
        if (reset) sum <= 5'd0;
        else sum <= sum - d;
    end
    assign q = sum;
    assign inv = ~sum;
endmodule
`

// cutAt is what a verdict-grade run of a candidate must leave behind: its full
// trace up to and including the first case that disagrees with golden, or
// the whole trace (error included) when no completed case disagrees.
func cutAt(full, golden *FPTrace) *FPTrace {
	for i, fp := range full.CaseFPs {
		if fp != golden.CaseFPs[i] {
			return &FPTrace{Ifc: full.Ifc, CaseFPs: full.CaseFPs[:i+1]}
		}
	}
	return full
}

// verifyBatches are the candidate batches the verdict-only tests run: the
// golden first, then passing duplicates, functional mutants (two namings
// of one machine among them), a looping candidate and a candidate whose
// binding fails.
var verifyBatches = []struct {
	name  string
	ifc   Interface
	codes []string
}{
	{"sequential", schedSeqIfc(), []string{schedSeqSrc, gangSeqVariant, accMinus, gangSeqLoop, sumMinus, gangSeqMissingPort, schedSeqSrc}},
	{"combinational", combIfc(), []string{xorSrc, orSrc, gangCombLoop, xorSrc, orSrc}},
}

// TestVerifyGangMatchesFullTraces referees verdict-only verification
// against full traces: every candidate's verdict-grade trace is its full
// solo trace cut at the first case that disagrees with the golden, and
// every verdict equals comparing full traces.
func TestVerifyGangMatchesFullTraces(t *testing.T) {
	for _, b := range verifyBatches {
		t.Run(b.name+"/soa", func(t *testing.T) {
			st := NewGenerator(8101).Verification(b.ifc)
			srcs := make([]*ast.Source, len(b.codes))
			full := make([]*FPTrace, len(b.codes))
			for i, code := range b.codes {
				srcs[i] = mustParse(t, code)
				full[i] = soloRun(srcs[i], "top_module", st, BackendCompiled)
			}
			golden := full[0]
			vst := &Stimulus{Ifc: st.Ifc, Cases: stimCases(st)} // fresh pointer: memo-cold
			got, err := runPlan(context.Background(), srcs, "top_module", vst, BackendCompiled, golden)
			if err != nil {
				t.Fatal(err)
			}
			cut := 0
			for i := range srcs {
				want := cutAt(full[i], golden)
				fpTraceEqual(t, fmt.Sprintf("candidate %d", i), got[i], want)
				if len(want.CaseFPs) < len(full[i].CaseFPs) {
					cut++
				}
			}
			if cut == 0 {
				t.Fatal("no run was cut before its last case; the batch does not exercise the cut")
			}
		})
	}
}

// TestVerifyGangVerdicts checks the public entry point: verdicts equal full
// trace agreement, verdict-grade memo entries are keyed by the golden, and a
// golden that is not a clean run of the stimulus is refused.
func TestVerifyGangVerdicts(t *testing.T) {
	for _, b := range verifyBatches {
		t.Run(b.name, func(t *testing.T) {
			st := NewGenerator(8102).Verification(b.ifc)
			srcs := make([]*ast.Source, len(b.codes))
			want := make([]bool, len(b.codes))
			golden := soloRun(mustParse(t, b.codes[0]), "top_module", st, BackendCompiled)
			for i, code := range b.codes {
				srcs[i] = mustParse(t, code)
				tr := soloRun(srcs[i], "top_module", st, BackendCompiled)
				want[i] = tr.Err == nil && FPAgrees(tr, golden)
			}
			vst := &Stimulus{Ifc: st.Ifc, Cases: stimCases(st)}
			for _, backend := range []Backend{BackendCompiled, BackendInterpreter} {
				got, err := VerifyGang(context.Background(), srcs, "top_module", vst, backend, golden)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s candidate %d: verdict %v, want %v", backend, i, got[i], want[i])
					}
				}
			}

			// Concurrent batches over one memo-cold stimulus share each
			// verdict-grade entry through its single flight.
			cst := &Stimulus{Ifc: st.Ifc, Cases: stimCases(st)}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, err := VerifyGang(context.Background(), srcs, "top_module", cst, BackendCompiled, golden)
					if err != nil {
						t.Error(err)
						return
					}
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("concurrent candidate %d: verdict %v, want %v", i, got[i], want[i])
						}
					}
				}()
			}
			wg.Wait()

			// The verdict-grade entries live under the golden's key only.
			if _, ok := fpMemo.Peek(memoKey(srcs[1], "top_module", vst, golden)); !ok {
				t.Error("verdict-grade entry missing from the memo")
			}
			if _, ok := fpMemo.Peek(memoKey(srcs[1], "top_module", vst, nil)); ok {
				t.Error("verdict-grade run published under the full-trace key")
			}

			bad := &FPTrace{Ifc: st.Ifc, CaseFPs: golden.CaseFPs[:len(golden.CaseFPs)-1]}
			if _, err := VerifyGang(context.Background(), srcs, "top_module", vst, BackendCompiled, bad); err == nil {
				t.Error("a golden short of the stimulus was accepted")
			}
		})
	}
}
