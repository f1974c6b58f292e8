package testbench

import (
	"hash/fnv"
	"testing"

	"repro/internal/verilog/parser"
)

// refCaseFingerprint is the original hash/fnv implementation of
// CaseTrace.Fingerprint, kept as the reference the inline FNV and the
// streaming path must keep matching.
func refCaseFingerprint(ct *CaseTrace) uint64 {
	h := fnv.New64a()
	for _, s := range ct.Steps {
		for _, o := range s.Outputs {
			_, _ = h.Write([]byte(o))
			_, _ = h.Write([]byte{'\n'})
		}
	}
	return h.Sum64()
}

// refTraceFingerprint mirrors the original Trace.Fingerprint.
func refTraceFingerprint(t *Trace) uint64 {
	h := fnv.New64a()
	if t.Err != nil {
		_, _ = h.Write([]byte("ERR:" + t.Err.Error()))
		return h.Sum64()
	}
	for i := range t.Cases {
		var buf [8]byte
		fp := refCaseFingerprint(&t.Cases[i])
		for j := range buf {
			buf[j] = byte(fp >> (8 * uint(j)))
		}
		_, _ = h.Write(buf[:])
	}
	return h.Sum64()
}

// xzSrc produces x bits (uninitialized reg read combinationally) so the
// four-state rendering shows up in fingerprints.
const xzSrc = `
module top_module (
    input [1:0] a,
    input b,
    output [1:0] y
);
    reg u;
    assign y = {u, a[0] ^ b};
endmodule
`

func fpSources(t *testing.T) []string {
	t.Helper()
	return []string{xorSrc, orSrc, xzSrc}
}

// TestInlineFNVMatchesStdlib pins the inline FNV-1a fold (and the memoized
// fingerprints built on it) to hash/fnv on real traces.
func TestInlineFNVMatchesStdlib(t *testing.T) {
	g := NewGenerator(21)
	st := g.Ranking(combIfc())
	for _, src := range fpSources(t) {
		parsed, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		tr := Run(parsed, "top_module", st)
		if tr.Err != nil {
			t.Fatalf("run: %v", tr.Err)
		}
		if got, want := tr.Fingerprint(), refTraceFingerprint(tr); got != want {
			t.Fatalf("trace fingerprint %#x != stdlib fnv %#x", got, want)
		}
		for i := range tr.Cases {
			if got, want := tr.Cases[i].Fingerprint(), refCaseFingerprint(&tr.Cases[i]); got != want {
				t.Fatalf("case %d fingerprint %#x != stdlib fnv %#x", i, got, want)
			}
		}
		// Memoized second read returns the same value.
		if tr.Fingerprint() != refTraceFingerprint(tr) {
			t.Fatal("memoized fingerprint diverged")
		}
	}
}

// TestRunFingerprintMatchesTrace asserts the streaming path produces the
// exact per-case and whole-run fingerprints of the printed trace, on both
// backends, including four-state outputs.
func TestRunFingerprintMatchesTrace(t *testing.T) {
	g := NewGenerator(33)
	st := g.Ranking(combIfc())
	for _, src := range fpSources(t) {
		parsed, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []Backend{BackendCompiled, BackendInterpreter} {
			tr := RunBackend(parsed, "top_module", st, backend)
			fp := runOne(parsed, "top_module", st, backend)
			if (tr.Err == nil) != (fp.Err == nil) {
				t.Fatalf("%s: error divergence: trace=%v fp=%v", backend, tr.Err, fp.Err)
			}
			if tr.Err != nil {
				continue
			}
			if len(fp.CaseFPs) != len(tr.Cases) {
				t.Fatalf("%s: case count %d != %d", backend, len(fp.CaseFPs), len(tr.Cases))
			}
			for i := range tr.Cases {
				if fp.CaseFPs[i] != tr.Cases[i].Fingerprint() {
					t.Fatalf("%s: case %d fingerprint diverges", backend, i)
				}
			}
			if fp.Fingerprint() != tr.Fingerprint() {
				t.Fatalf("%s: whole-run fingerprint diverges", backend)
			}
			if ffp := tr.FP(); !FPAgrees(fp, ffp) || ffp.Fingerprint() != fp.Fingerprint() {
				t.Fatalf("%s: Trace.FP() view disagrees with RunFingerprints", backend)
			}
		}
	}
}

// TestRunFingerprintSequential covers the clocked per-case-fresh-instance
// path.
func TestRunFingerprintSequential(t *testing.T) {
	const src = `
module top_module (
    input clk,
    input reset,
    input [3:0] d,
    output reg [3:0] q
);
    always @(posedge clk) begin
        if (reset) q <= 4'd0;
        else q <= q + d;
    end
endmodule
`
	parsed, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ifc := Interface{
		Inputs:  []PortSpec{{Name: "clk", Width: 1}, {Name: "reset", Width: 1}, {Name: "d", Width: 4}},
		Outputs: []PortSpec{{Name: "q", Width: 4}},
		Clock:   "clk",
		Reset:   "reset",
	}
	st := NewGenerator(7).Ranking(ifc)
	for _, backend := range []Backend{BackendCompiled, BackendInterpreter} {
		tr := RunBackend(parsed, "top_module", st, backend)
		fp := runOne(parsed, "top_module", st, backend)
		if tr.Err != nil || fp.Err != nil {
			t.Fatalf("%s: run errors: %v / %v", backend, tr.Err, fp.Err)
		}
		if fp.Fingerprint() != tr.Fingerprint() {
			t.Fatalf("%s: sequential fingerprint diverges", backend)
		}
	}
}

// TestRunFingerprintRecordsErrors asserts errored runs fold identically into
// both representations: same messages, same fingerprints, and agreement only
// between identical failures.
func TestRunFingerprintRecordsErrors(t *testing.T) {
	badAst, err := parser.Parse(`
module top_module (
    input en,
    output y
);
    wire w;
    assign w = en ? ~w : 1'b0;
    assign y = w;
endmodule
`)
	if err != nil {
		t.Fatal(err)
	}
	ifc := Interface{
		Inputs:  []PortSpec{{Name: "en", Width: 1}},
		Outputs: []PortSpec{{Name: "y", Width: 1}},
	}
	st := NewGenerator(3).Ranking(ifc)
	tr := Run(badAst, "top_module", st)
	fp := runOne(badAst, "top_module", st, BackendCompiled)
	if tr.Err == nil || fp.Err == nil {
		t.Fatalf("expected runtime failure, got trace=%v fp=%v", tr.Err, fp.Err)
	}
	if tr.Err.Error() != fp.Err.Error() {
		t.Fatalf("error messages diverge: %q vs %q", tr.Err, fp.Err)
	}
	if tr.Fingerprint() != fp.Fingerprint() {
		t.Fatal("error fingerprints diverge")
	}
	if !FPAgrees(fp, tr.FP()) {
		t.Fatal("identical failures must agree")
	}
	okAst, err := parser.Parse(orSrc)
	if err != nil {
		t.Fatal(err)
	}
	okFP := runOne(okAst, "top_module", NewGenerator(3).Ranking(combIfc()), BackendCompiled)
	if FPAgrees(fp, okFP) {
		t.Fatal("errored run must not agree with a clean run")
	}
}

// TestFPCaseAgreesMirrorsCaseAgrees cross-checks the two agreement helpers
// on designs that differ on a strict subset of cases.
func TestFPCaseAgreesMirrorsCaseAgrees(t *testing.T) {
	st := NewGenerator(9).Ranking(combIfc())
	xorAst, err := parser.Parse(xorSrc)
	if err != nil {
		t.Fatal(err)
	}
	orAst, err := parser.Parse(orSrc)
	if err != nil {
		t.Fatal(err)
	}
	trX, trO := Run(xorAst, "top_module", st), Run(orAst, "top_module", st)
	fpX := runOne(xorAst, "top_module", st, BackendCompiled)
	fpO := runOne(orAst, "top_module", st, BackendCompiled)
	if Agrees(trX, trO) != FPAgrees(fpX, fpO) {
		t.Fatal("whole-run agreement diverges between paths")
	}
	for i := 0; i < st.NumCases(); i++ {
		if CaseAgrees(trX, trO, i) != FPCaseAgrees(fpX, fpO, i) {
			t.Fatalf("case %d agreement diverges between paths", i)
		}
	}
}
