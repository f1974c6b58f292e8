package testbench

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/verilog/parser"
)

// TestRunBackendAllocBudget caps the allocation cost of one full testbench
// run on the compiled backend (warm compile cache, pooled engines). With the
// zero-allocation engine, what remains is the unavoidable trace-capture
// boundary: one string per recorded output plus per-case bookkeeping. The
// budget asserts we stay within a small constant factor of that floor, so
// engine-side allocations cannot silently creep back in.
func TestRunBackendAllocBudget(t *testing.T) {
	const src = `
module top_module (
    input clk,
    input reset,
    input [15:0] d,
    output reg [15:0] q,
    output [15:0] inv
);
    always @(posedge clk) begin
        if (reset) q <= 16'd0;
        else q <= q + d;
    end
    assign inv = ~q;
endmodule
`
	parsed, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ifc := Interface{
		Inputs: []PortSpec{
			{Name: "clk", Width: 1}, {Name: "reset", Width: 1}, {Name: "d", Width: 16},
		},
		Outputs: []PortSpec{{Name: "q", Width: 16}, {Name: "inv", Width: 16}},
		Clock:   "clk",
		Reset:   "reset",
	}
	st := NewGenerator(9).Verification(ifc)

	run := func() {
		tr := RunBackend(parsed, "top_module", st, BackendCompiled)
		if tr.Err != nil {
			t.Fatal(tr.Err)
		}
	}
	run() // warm the compile cache and engine pool

	recorded := 0
	for _, c := range stimCases(st) {
		recorded += len(c.Steps) * len(ifc.Outputs)
	}
	// Floor: 1 string per recorded output. Bookkeeping (per-case slices,
	// trace assembly, fingerprint scratch) rides within the 2x factor.
	budget := float64(2*recorded + 16*st.NumCases() + 64)
	allocs := testing.AllocsPerRun(10, run)
	t.Logf("full run: %.0f allocs for %d recorded outputs over %d cases (budget %.0f)",
		allocs, recorded, st.NumCases(), budget)
	if allocs > budget {
		t.Fatalf("one testbench run allocates %.0f objects, budget %.0f", allocs, budget)
	}
}

// allocAccumSrc is a 16-bit accumulator with two outputs, the design the
// fingerprint allocation gates run.
const allocAccumSrc = `
module top_module (
    input clk,
    input reset,
    input [15:0] d,
    output reg [15:0] q,
    output [15:0] inv
);
    always @(posedge clk) begin
        if (reset) q <= 16'd0;
        else q <= q + d;
    end
    assign inv = ~q;
endmodule
`

func allocAccumIfc() Interface {
	return Interface{
		Inputs: []PortSpec{
			{Name: "clk", Width: 1}, {Name: "reset", Width: 1}, {Name: "d", Width: 16},
		},
		Outputs: []PortSpec{{Name: "q", Width: 16}, {Name: "inv", Width: 16}},
		Clock:   "clk",
		Reset:   "reset",
	}
}

// TestRunFingerprintAllocBudget is the fingerprint-path counterpart on a
// memo hit: after the first run publishes the trace, a run of one must
// allocate a small constant — the plan and its result slice — whatever the
// stimulus size.
func TestRunFingerprintAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs sync.Pool and allocation accounting")
	}
	parsed, err := parser.Parse(allocAccumSrc)
	if err != nil {
		t.Fatal(err)
	}
	st := NewGenerator(9).Verification(allocAccumIfc())

	var last *FPTrace
	run := func() {
		last = runOne(parsed, "top_module", st, BackendCompiled)
		if last.Err != nil {
			t.Fatal(last.Err)
		}
	}
	run() // warm the compile cache and engine pool
	want := RunBackend(parsed, "top_module", st, BackendCompiled)
	if last.Fingerprint() != want.Fingerprint() {
		t.Fatal("fingerprint run disagrees with trace run")
	}

	const budget = 8.0
	allocs := testing.AllocsPerRun(10, run)
	t.Logf("memo-hit fingerprint run: %.0f allocs over %d cases (budget %.0f)", allocs, st.NumCases(), budget)
	if allocs > budget {
		t.Fatalf("one fingerprint run allocates %.0f objects, budget %.0f", allocs, budget)
	}
}

// TestRunFingerprintMissAllocBudget gates a run of one that simulates: the
// memo entry is removed before each measured run, so every run claims it,
// binds from the warm bind memo, runs every case on its solo engine and
// publishes. It must allocate the same flat count at the 3-case ranking
// stimulus and the 8-case verification stimulus: exactly ZERO per case, step
// or recorded output. This is the zero-alloc-per-step regression gate for the
// streaming ranking path.
func TestRunFingerprintMissAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs sync.Pool and allocation accounting")
	}
	parsed, err := parser.Parse(allocAccumSrc)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(9)
	stims := []*Stimulus{g.Ranking(allocAccumIfc()), g.Verification(allocAccumIfc())}
	const budget = 12.0
	counts := make([]float64, len(stims))
	for i, st := range stims {
		key := memoKey(parsed, "top_module", st, nil)
		sims := ReadStoreStats().Sims
		run := func() {
			fpMemo.Remove(key)
			if tr := runOne(parsed, "top_module", st, BackendCompiled); tr.Err != nil {
				t.Fatal(tr.Err)
			}
		}
		run() // warm the compile cache, the bind memo and the engine pool
		allocs := testing.AllocsPerRun(10, run)
		counts[i] = allocs
		if got := ReadStoreStats().Sims - sims; got != 12 {
			t.Fatalf("%d-case stimulus: %d simulations over 12 runs, want 12 (every run must miss)", st.NumCases(), got)
		}
		t.Logf("memo-miss fingerprint run: %.0f allocs over %d cases (budget %.0f)", allocs, st.NumCases(), budget)
		if allocs > budget {
			t.Fatalf("%d-case stimulus: one memo-miss fingerprint run allocates %.0f objects, budget %.0f", st.NumCases(), allocs, budget)
		}
	}
	if counts[0] != counts[1] {
		t.Fatalf("memo-miss run allocates %.0f objects at %d cases but %.0f at %d: the count grows with the stimulus",
			counts[0], stims[0].NumCases(), counts[1], stims[1].NumCases())
	}
}

// TestScheduleDriveAllocBudget gates the compiled-schedule drive path at its
// floor: with the Schedule built and the binding resolved (warm state — what
// every case after the first reuses), driving and fingerprinting a whole
// test case must allocate exactly ZERO objects. Every map lookup, driveOrder
// slice, boxed Value, or formatting call that creeps back into the drive
// loop fails this gate.
func TestScheduleDriveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs allocation accounting")
	}
	const src = `
module top_module (
    input clk,
    input reset,
    input [15:0] d,
    output reg [15:0] q,
    output [15:0] inv
);
    always @(posedge clk) begin
        if (reset) q <= 16'd0;
        else q <= q + d;
    end
    assign inv = ~q;
endmodule
`
	parsed, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ifc := Interface{
		Inputs: []PortSpec{
			{Name: "clk", Width: 1}, {Name: "reset", Width: 1}, {Name: "d", Width: 16},
		},
		Outputs: []PortSpec{{Name: "q", Width: 16}, {Name: "inv", Width: 16}},
		Clock:   "clk",
		Reset:   "reset",
	}
	st := NewGenerator(9).Verification(ifc)
	sc := st.schedule()
	if sc == nil {
		t.Fatal("generated stimulus must compile to a schedule")
	}
	d, err := sim.CompileCached(parsed, "top_module")
	if err != nil {
		t.Fatal(err)
	}
	en := d.AcquireEngine()
	defer d.ReleaseEngine(en)
	b, ok := sc.bind(en, &st.Ifc)
	if !ok {
		t.Fatal("binding failed")
	}

	var last uint64
	drive := func() {
		fp, ferr := runCaseFPSched(en, st, sc, &b, 0)
		if ferr != nil {
			t.Fatal(ferr)
		}
		last = fp
	}
	drive() // warm queue buffers
	allocs := testing.AllocsPerRun(20, drive)
	t.Logf("warm scheduled case: %.0f allocs (%d steps), fp=%#x", allocs, len(st.Case(0).Steps), last)
	if allocs != 0 {
		t.Fatalf("warm scheduled fingerprint case allocates %.0f objects, want 0", allocs)
	}
}
