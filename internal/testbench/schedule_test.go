package testbench

import (
	"context"
	"testing"

	"repro/internal/sim"
	"repro/internal/verilog/ast"
	"repro/internal/verilog/parser"
)

// runBackendLegacy executes a stimulus with the schedule disabled: the
// name-keyed map-walking path the scheduled path must reproduce exactly.
func runBackendLegacy(t *testing.T, src string, st *Stimulus, backend Backend) *Trace {
	t.Helper()
	parsed, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ms := &Stimulus{Ifc: st.Ifc, Cases: stimCases(st)}
	tr := &Trace{Ifc: st.Ifc, Cases: make([]CaseTrace, 0, ms.NumCases())}
	cr := caseRunner{} // sched nil: every case takes the legacy path
	tr.Err = forEachCase(context.Background(), newInstSource(parsed, "top_module", backend), ms, &cr, func(s sim.Instance, ci int) error {
		ct, cerr := runCase(s, ms, nil, ci)
		if cerr != nil {
			return cerr
		}
		tr.Cases = append(tr.Cases, ct)
		return nil
	})
	return tr
}

const schedSeqSrc = `
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
    assign inv = ~q;
endmodule
`

func schedSeqIfc() Interface {
	return Interface{
		Inputs:  []PortSpec{{Name: "clk", Width: 1}, {Name: "reset", Width: 1}, {Name: "d", Width: 5}},
		Outputs: []PortSpec{{Name: "q", Width: 5}, {Name: "inv", Width: 5}},
		Clock:   "clk",
		Reset:   "reset",
	}
}

// TestScheduledRunMatchesLegacy drives the same stimulus through the
// compiled schedule and through the legacy name-keyed path, on both
// backends, and requires byte-identical traces and fingerprints.
func TestScheduledRunMatchesLegacy(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		ifc  Interface
	}{
		{"sequential", schedSeqSrc, schedSeqIfc()},
		{"combinational", xorSrc, combIfc()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewGenerator(11).Verification(tc.ifc)
			if st.schedule() == nil {
				t.Fatal("generated stimulus must be schedulable")
			}
			parsed, err := parser.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			for _, backend := range []Backend{BackendCompiled, BackendInterpreter} {
				sched := RunBackend(parsed, "top_module", st, backend)
				legacy := runBackendLegacy(t, tc.src, st, backend)
				if sched.Err != nil || legacy.Err != nil {
					t.Fatalf("%v: errs %v / %v", backend, sched.Err, legacy.Err)
				}
				if len(sched.Cases) != len(legacy.Cases) {
					t.Fatalf("%v: case counts differ", backend)
				}
				for ci := range sched.Cases {
					for si := range sched.Cases[ci].Steps {
						a := sched.Cases[ci].Steps[si].Outputs
						b := legacy.Cases[ci].Steps[si].Outputs
						for oi := range a {
							if a[oi] != b[oi] {
								t.Fatalf("%v case %d step %d out %d: %q vs %q",
									backend, ci, si, oi, a[oi], b[oi])
							}
						}
					}
				}
				fp := runOne(parsed, "top_module", st, backend)
				if fp.Err != nil || fp.Fingerprint() != sched.Fingerprint() {
					t.Fatalf("%v: scheduled fingerprint run disagrees with trace run", backend)
				}
			}
		})
	}
}

// TestScheduleFallbackOnMissingPort: a candidate missing an expected input
// must fail binding and fall back to the legacy path, producing exactly the
// legacy error trace (error candidates cluster by message, so the bytes
// matter).
func TestScheduleFallbackOnMissingPort(t *testing.T) {
	const missingD = `
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
	st := NewGenerator(11).Ranking(schedSeqIfc())
	for _, backend := range []Backend{BackendCompiled, BackendInterpreter} {
		got := RunBackend(mustParse(t, missingD), "top_module", st, backend)
		want := runBackendLegacy(t, missingD, st, backend)
		if got.Err == nil {
			t.Fatalf("%v: missing port should error", backend)
		}
		if want.Err == nil || got.Err.Error() != want.Err.Error() {
			t.Fatalf("%v: fallback error %q, legacy error %q", backend, got.Err, want.Err)
		}
		fp := runOne(mustParse(t, missingD), "top_module", st, backend)
		if fp.Err == nil || fp.Fingerprint() != got.Fingerprint() {
			t.Fatalf("%v: fingerprint fallback diverges", backend)
		}
	}
}

func mustParse(t *testing.T, src string) *ast.Source {
	t.Helper()
	parsed, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return parsed
}

// TestIrregularStimulusFallsBack: hand-built steps with differing input sets
// must not be scheduled — and must still run.
func TestIrregularStimulusFallsBack(t *testing.T) {
	st := &Stimulus{
		Ifc: combIfc(),
		Cases: []Case{
			{Steps: []Step{{Inputs: map[string]sim.Value{"a": sim.NewKnown(2, 1), "b": sim.NewKnown(1, 0)}}}},
			{Steps: []Step{{Inputs: map[string]sim.Value{"a": sim.NewKnown(2, 3)}}}}, // b missing
		},
	}
	if st.schedule() != nil {
		t.Fatal("irregular stimulus must not compile to a schedule")
	}
	tr := Run(mustParse(t, xorSrc), "top_module", st)
	if tr.Err != nil {
		t.Fatalf("irregular run failed: %v", tr.Err)
	}
	if len(tr.Cases) != 2 {
		t.Fatalf("cases = %d", len(tr.Cases))
	}
}

// TestScheduleRoundTrip: the flattened planes must reproduce every generated
// stimulus value exactly (ValueView(CopyPlanes(v)) == v).
func TestScheduleRoundTrip(t *testing.T) {
	st := NewGenerator(21).Verification(schedSeqIfc())
	sc := st.schedule()
	if sc == nil {
		t.Fatal("no schedule")
	}
	row := 0
	for ci := 0; ci < st.NumCases(); ci++ {
		c := st.Case(ci)
		for si := range c.Steps {
			off := row * sc.rowWords
			for i, name := range sc.names {
				nw := int(sc.wordsOf[i])
				got := sim.ValueView(int(sc.widths[i]), sc.val[off:off+nw], sc.xz[off:off+nw])
				want := c.Steps[si].Inputs[name]
				if !got.Equal(want) {
					t.Fatalf("case %d step %d %s: %s vs %s", ci, si, name, got, want)
				}
				off += nw
			}
			row++
		}
	}
}
