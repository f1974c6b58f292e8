package testbench

import (
	"context"
	"testing"

	"repro/internal/sim"
	"repro/internal/verilog/ast"
)

// gangSeqVariant is a functional mutant of schedSeqSrc (subtracts instead of
// accumulating), so a batch carries disagreeing candidates.
const gangSeqVariant = `
module top_module (
    input clk,
    input reset,
    input [4:0] d,
    output reg [4:0] q,
    output [4:0] inv
);
    always @(posedge clk) begin
        if (reset) q <= 5'd0;
        else q <= q - d;
    end
    assign inv = ~q;
endmodule
`

// gangSeqLoop oscillates: the combinational self-loop on inv fails every
// case, so the run ends with a runtime error.
const gangSeqLoop = `
module top_module (
    input clk,
    input reset,
    input [4:0] d,
    output reg [4:0] q,
    output [4:0] inv
);
    always @(posedge clk) begin
        if (reset) q <= 5'd0;
        else q <= q + d;
    end
    assign inv = ~inv;
endmodule
`

// gangSeqMissingPort compiles but lacks the d input, so its binding fails
// and the run drives by name (identical error bytes).
const gangSeqMissingPort = `
module top_module (
    input clk,
    input reset,
    output reg [4:0] q,
    output [4:0] inv
);
    always @(posedge clk) begin
        if (reset) q <= 5'd0;
        else q <= q + 5'd1;
    end
    assign inv = ~q;
endmodule
`

const gangCombLoop = `
module top_module (
    input [1:0] a,
    input b,
    output [1:0] y
);
    assign y = ~y;
endmodule
`

// runOneCtx is RunFingerprints over one candidate.
func runOneCtx(ctx context.Context, src *ast.Source, top string, st *Stimulus, backend Backend) (*FPTrace, error) {
	out, err := RunFingerprints(ctx, []*ast.Source{src}, top, st, backend)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// runOne is runBatch over one candidate.
func runOne(src *ast.Source, top string, st *Stimulus, backend Backend) *FPTrace {
	return runBatch([]*ast.Source{src}, top, st, backend)[0]
}

// runBatch is RunFingerprints under a background context.
func runBatch(srcs []*ast.Source, top string, st *Stimulus, backend Backend) []*FPTrace {
	out, err := RunFingerprints(context.Background(), srcs, top, st, backend)
	if err != nil {
		panic(err) // a background context never cancels
	}
	return out
}

// soloRun is the unmemoized full-trace solo run under a background context:
// the referee the memo, the plan and the store are held to.
func soloRun(src *ast.Source, top string, st *Stimulus, backend Backend) *FPTrace {
	tr, err := runSolo(context.Background(), newInstSource(src, top, backend), st, nil)
	if err != nil {
		panic(err) // a background context never cancels
	}
	return tr
}

// fpTraceEqual requires two fingerprint traces to agree exactly: error
// bytes, per-case fingerprints and the whole-run digest.
func fpTraceEqual(t *testing.T, label string, got, want *FPTrace) {
	t.Helper()
	if (got.Err == nil) != (want.Err == nil) {
		t.Fatalf("%s: error divergence: got %v, want %v", label, got.Err, want.Err)
	}
	if got.Err != nil && got.Err.Error() != want.Err.Error() {
		t.Fatalf("%s: error bytes differ: got %q, want %q", label, got.Err, want.Err)
	}
	if len(got.CaseFPs) != len(want.CaseFPs) {
		t.Fatalf("%s: case counts differ: %d vs %d", label, len(got.CaseFPs), len(want.CaseFPs))
	}
	for i := range got.CaseFPs {
		if got.CaseFPs[i] != want.CaseFPs[i] {
			t.Fatalf("%s: case %d fingerprint differs", label, i)
		}
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: whole-run fingerprint differs", label)
	}
}

// TestGangLanesMatchSolo runs every kind of job a plan meets — healthy
// designs, a disagreeing mutant, a design that fails at run time, a design
// whose binding fails so that it drives by name, and a duplicate — as one
// batch on a memo-cold stimulus, on sequential and combinational
// interfaces. Every trace must equal an unmemoized solo run, and every
// finished run, runtime errors included, must have published that trace
// under its full-trace memo key.
func TestGangLanesMatchSolo(t *testing.T) {
	for _, tc := range []struct {
		name string
		ifc  Interface
		srcs []string
	}{
		{"sequential", schedSeqIfc(), []string{schedSeqSrc, gangSeqVariant, gangSeqLoop, gangSeqMissingPort, schedSeqSrc}},
		{"combinational", combIfc(), []string{xorSrc, orSrc, gangCombLoop}},
	} {
		t.Run(tc.name+"/soa", func(t *testing.T) {
			st := NewGenerator(17).Ranking(tc.ifc)
			if st.schedule() == nil {
				t.Fatal("generated stimulus must be schedulable")
			}
			parsed := make([]*ast.Source, len(tc.srcs))
			for i, code := range tc.srcs {
				parsed[i] = mustParse(t, code)
			}
			out := runBatch(parsed, "top_module", st, BackendCompiled)
			for i, src := range parsed {
				solo := soloRun(src, "top_module", st, BackendCompiled)
				fpTraceEqual(t, tc.name+"/job", out[i], solo)
				memo, ok := fpMemo.Peek(memoKey(src, "top_module", st, nil))
				if !ok {
					t.Fatalf("%s: job %d published no memo entry", tc.name, i)
				}
				fpTraceEqual(t, tc.name+"/memo", memo, solo)
			}
		})
	}
}

// TestGangLanesIrregularStimulusFallsBack: with no schedule every case
// drives by name and must still match the solo run.
func TestGangLanesIrregularStimulusFallsBack(t *testing.T) {
	st := &Stimulus{
		Ifc: combIfc(),
		Cases: []Case{
			{Steps: []Step{{Inputs: map[string]sim.Value{"a": sim.NewKnown(2, 1), "b": sim.NewKnown(1, 0)}}}},
			{Steps: []Step{{Inputs: map[string]sim.Value{"a": sim.NewKnown(2, 3)}}}},
		},
	}
	if st.schedule() != nil {
		t.Fatal("irregular stimulus must not schedule")
	}
	src := mustParse(t, xorSrc)
	fpTraceEqual(t, "irregular", runOne(src, "top_module", st, BackendCompiled), soloRun(src, "top_module", st, BackendCompiled))
}

// TestRunFingerprintGangMatchesSolo exercises RunFingerprints over a batch
// — memo, duplicate candidates, compile failures and interpreter delegation —
// against unmemoized solo runs.
func TestRunFingerprintGangMatchesSolo(t *testing.T) {
	golden := mustParse(t, schedSeqSrc)
	mutant := mustParse(t, gangSeqVariant)
	noTop := mustParse(t, `module not_top (input a, output y); assign y = a; endmodule`)
	srcs := []*ast.Source{golden, mutant, golden /* duplicate pointer */, noTop, mustParse(t, gangSeqLoop)}

	for _, tc := range []struct {
		name    string
		backend Backend
	}{
		{"compiled-nobase", BackendCompiled},
		{"interpreter", BackendInterpreter},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Fresh stimulus value per subtest: a fresh pointer misses the
			// (design, stimulus) memo, so the plan really runs.
			st := NewGenerator(5).Ranking(schedSeqIfc())
			out := runBatch(srcs, "top_module", st, tc.backend)
			if len(out) != len(srcs) {
				t.Fatalf("result count %d, want %d", len(out), len(srcs))
			}
			for i, src := range srcs {
				fpTraceEqual(t, tc.name, out[i], soloRun(src, "top_module", st, tc.backend))
			}
			if out[0].Fingerprint() != out[2].Fingerprint() {
				t.Error("duplicate candidates disagree")
			}
		})
	}
}

// TestRunFingerprintMemoConsistency: the memoized front door must return the
// same values as a fresh unmemoized run, and repeated calls share one trace.
func TestRunFingerprintMemoConsistency(t *testing.T) {
	src := mustParse(t, schedSeqSrc)
	st := NewGenerator(23).Ranking(schedSeqIfc())
	first := runOne(src, "top_module", st, BackendCompiled)
	second := runOne(src, "top_module", st, BackendCompiled)
	if first != second {
		t.Error("memoized run not shared across identical calls")
	}
	fpTraceEqual(t, "memo", first, soloRun(src, "top_module", st, BackendCompiled))
}
