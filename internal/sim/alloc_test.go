package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/verilog/ast"
	"repro/internal/verilog/parser"
	"repro/internal/verilog/printer"
)

// compileMust compiles src for tests.
func compileMust(t *testing.T, src, top string) *Design {
	t.Helper()
	parsed, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := Compile(parsed, top)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return d
}

// allocComb is a combinational design touching the major kernel families:
// arithmetic (incl. multi-delta ripple through wires), muxing, comparison,
// reduction, concatenation, and shifts.
const allocComb = `
module top_module (
    input [63:0] a,
    input [63:0] b,
    output [63:0] y,
    output [63:0] z,
    output p
);
    wire [63:0] s = a + b;
    wire [63:0] m = a * b;
    wire [63:0] q = (a[0]) ? s ^ m : s - m;
    assign y = {q[31:0], q[63:32]} >> b[4:0];
    assign z = (a < b) ? ~q : q | 64'hDEAD_BEEF;
    assign p = ^y & |z;
endmodule
`

// allocSeq is a clocked design with non-blocking assignments, a case mux, a
// for loop, and partial-bit writes — the paths that stress the NBA arena and
// partial stores.
const allocSeq = `
module top_module (
    input clk,
    input reset,
    input [31:0] d,
    output reg [31:0] q,
    output reg [7:0] cnt
);
    integer i;
    reg [31:0] acc;
    always @(posedge clk) begin
        if (reset) begin
            q <= 32'd0;
            cnt <= 8'd0;
        end else begin
            acc = 32'd0;
            for (i = 0; i < 4; i = i + 1)
                acc[7:0] = acc[7:0] + d[7:0];
            case (d[1:0])
                2'd0: q <= q + acc;
                2'd1: q <= q ^ d;
                default: q <= {q[15:0], d[15:0]};
            endcase
            cnt <= cnt + 8'd1;
        end
    end
endmodule
`

// TestSettleZeroAlloc asserts the tentpole invariant: steady-state Settle on
// the register-file engine allocates nothing, so the zero-allocation win
// cannot silently rot.
func TestSettleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs sync.Pool and allocation accounting")
	}
	d := compileMust(t, allocComb, "top_module")
	en := d.NewEngine()
	step := func(i uint64) {
		if err := en.SetInputUint("a", 0x0123_4567_89AB_CDEF^i); err != nil {
			t.Fatal(err)
		}
		if err := en.SetInputUint("b", 0xFEDC_BA98_7654_3210+i); err != nil {
			t.Fatal(err)
		}
		if err := en.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up the scheduler's double buffers, then measure.
	for i := uint64(0); i < 8; i++ {
		step(i)
	}
	i := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		i++
		step(i)
	})
	if allocs != 0 {
		t.Fatalf("steady-state SetInput+Settle allocates %.1f objects/run, want 0", allocs)
	}
}

// TestTickZeroAlloc is the sequential counterpart: a full clock cycle
// (posedge settle + negedge settle) with NBA traffic allocates nothing.
func TestTickZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs sync.Pool and allocation accounting")
	}
	d := compileMust(t, allocSeq, "top_module")
	en := d.NewEngine()
	if err := en.SetInputUint("reset", 1); err != nil {
		t.Fatal(err)
	}
	if err := en.Tick("clk"); err != nil {
		t.Fatal(err)
	}
	if err := en.SetInputUint("reset", 0); err != nil {
		t.Fatal(err)
	}
	step := func(i uint64) {
		if err := en.SetInputUint("d", 0x1357_9BDF^i); err != nil {
			t.Fatal(err)
		}
		if err := en.Tick("clk"); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 8; i++ {
		step(i)
	}
	i := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		i++
		step(i)
	})
	if allocs != 0 {
		t.Fatalf("steady-state SetInput+Tick allocates %.1f objects/run, want 0", allocs)
	}
}

// TestAcquireReleaseZeroAlloc asserts that cycling a pooled engine (the
// per-testbench-case pattern) settles to zero allocations: reset is two
// plane copies, not a reallocation.
func TestAcquireReleaseZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs sync.Pool and allocation accounting")
	}
	d := compileMust(t, allocSeq, "top_module")
	run := func() {
		en := d.AcquireEngine()
		if err := en.SetInputUint("reset", 1); err != nil {
			t.Fatal(err)
		}
		if err := en.Tick("clk"); err != nil {
			t.Fatal(err)
		}
		d.ReleaseEngine(en)
	}
	for i := 0; i < 4; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(100, run)
	if allocs != 0 {
		t.Fatalf("acquire/tick/release allocates %.1f objects/run, want 0", allocs)
	}
}

// TestHashOutputZeroAlloc asserts the streaming fingerprint digest allocates
// nothing: ranking whole candidate pools hashes every output of every step
// through this path, so a single allocation here would undo the win.
func TestHashOutputZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs sync.Pool and allocation accounting")
	}
	d := compileMust(t, allocComb, "top_module")
	en := d.NewEngine()
	if err := en.SetInputUint("a", 0x0123_4567_89AB_CDEF); err != nil {
		t.Fatal(err)
	}
	if err := en.SetInputUint("b", 0xFEDC_BA98_7654_3210); err != nil {
		t.Fatal(err)
	}
	if err := en.Settle(); err != nil {
		t.Fatal(err)
	}
	type output struct{ h, width int }
	var outs []output
	for _, out := range []struct {
		name  string
		width int
	}{{"y", 64}, {"z", 67}, {"p", 1}} {
		idx, err := en.OutputHandle(out.name)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, output{idx, out.width})
	}
	h := FNVOffset64
	allocs := testing.AllocsPerRun(100, func() {
		for _, out := range outs {
			h = en.HashOutputH(h, out.h, out.width)
		}
	})
	if allocs != 0 {
		t.Fatalf("HashOutputH allocates %.1f objects/run, want 0", allocs)
	}
}

// TestEngineResetMatchesFresh checks that a recycled engine is
// indistinguishable from a new one, including after a run that left NBA and
// scheduler state behind.
func TestEngineResetMatchesFresh(t *testing.T) {
	d := compileMust(t, allocSeq, "top_module")

	trace := func(en *Engine) []string {
		t.Helper()
		var out []string
		if err := en.SetInputUint("reset", 1); err != nil {
			t.Fatal(err)
		}
		if err := en.Tick("clk"); err != nil {
			t.Fatal(err)
		}
		if err := en.SetInputUint("reset", 0); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 6; i++ {
			if err := en.SetInputUint("d", i*0x1111); err != nil {
				t.Fatal(err)
			}
			if err := en.Tick("clk"); err != nil {
				t.Fatal(err)
			}
			q, err := en.Output("q")
			if err != nil {
				t.Fatal(err)
			}
			cnt, err := en.Output("cnt")
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, q.String()+"|"+cnt.String())
		}
		return out
	}

	fresh := d.NewEngine()
	want := trace(fresh)

	// Dirty an engine (mid-flight state), release, reacquire, and re-trace.
	en := d.AcquireEngine()
	_ = en.SetInputUint("d", 42)
	_ = en.SetInputUint("clk", 1) // posedge queued but never settled
	d.ReleaseEngine(en)
	en2 := d.AcquireEngine()
	got := trace(en2)
	d.ReleaseEngine(en2)

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recycled engine diverges at step %d: got %s want %s", i, got[i], want[i])
		}
	}
}

// TestDeltaEngineTickZeroAlloc gates the ranking path's compile at the same
// floor as a direct Compile: a design served from a CompileCache hit (a second,
// independently parsed copy of the source) must give a pooled engine that
// ticks with zero steady-state allocations.
func TestDeltaEngineTickZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs sync.Pool and allocation accounting")
	}
	cache := NewCompileCache(4)
	var d *Design
	for i := 0; i < 2; i++ {
		parsed, err := parser.Parse(allocSeq)
		if err != nil {
			t.Fatal(err)
		}
		if d, err = cache.Get(parsed, "top_module"); err != nil {
			t.Fatal(err)
		}
	}
	if hits, _ := cache.Stats(); hits != 1 {
		t.Fatalf("second compile of the same source: %d cache hits, want 1", hits)
	}
	en := d.AcquireEngine()
	defer d.ReleaseEngine(en)
	if err := en.SetInputUint("reset", 1); err != nil {
		t.Fatal(err)
	}
	if err := en.Tick("clk"); err != nil {
		t.Fatal(err)
	}
	if err := en.SetInputUint("reset", 0); err != nil {
		t.Fatal(err)
	}
	step := func(i uint64) {
		if err := en.SetInputUint("d", 0x2468_ACE0^i); err != nil {
			t.Fatal(err)
		}
		if err := en.Tick("clk"); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 8; i++ {
		step(i)
	}
	i := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		i++
		step(i)
	})
	if allocs != 0 {
		t.Fatalf("cache-served engine allocates %.1f objects/run, want 0", allocs)
	}
}

// TestCanonicalKeyAllocs asserts that keying a fresh AST allocates only the
// hex key and its memo insert: the source is printed into a pooled buffer
// and hashed in place, with no printed string and no []byte copy.
func TestCanonicalKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs sync.Pool and allocation accounting")
	}
	const runs = 200
	srcs := make([]*ast.Source, runs+1)
	for i := range srcs {
		src, err := parser.Parse(allocSeq)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = src
	}
	sum := sha256.Sum256([]byte(printer.Print(srcs[0])))
	want := hex.EncodeToString(sum[:])
	resetKeyMemo()
	CanonicalKey(srcs[0]) // grow the pooled buffer
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if got := CanonicalKey(srcs[i]); got != want {
			t.Fatalf("CanonicalKey = %s, want %s (SHA-256 of the printed source)", got, want)
		}
		i = (i + 1) % len(srcs)
	})
	if allocs > 2 {
		t.Fatalf("keying a fresh AST allocates %.1f objects, want at most 2 (hex key + memo insert)", allocs)
	}
}

// TestNormalKeyAllocs holds NormalKey to CanonicalKey's budget: keying a
// fresh AST allocates only the hex key and its memo insert — the normal form
// prints into a pooled buffer with pooled rename scratch and orders
// commutative operands in place — and a memo hit allocates nothing, also
// when the AST's CanonicalKey shares the entry.
func TestNormalKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs sync.Pool and allocation accounting")
	}
	const runs = 200
	srcs := make([]*ast.Source, runs+1)
	for i := range srcs {
		src, err := parser.Parse(allocSeq)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = src
	}
	resetKeyMemo()
	want := NormalKey(srcs[0]) // also grows the pooled buffer and scratch
	if want == CanonicalKey(srcs[0]) {
		t.Fatal("NormalKey equals CanonicalKey: the domain tag is missing")
	}
	i := 1
	allocs := testing.AllocsPerRun(runs, func() {
		if got := NormalKey(srcs[i]); got != want {
			t.Fatalf("NormalKey of a fresh parse = %s, want %s", got, want)
		}
		i = (i + 1) % len(srcs)
	})
	if allocs > 2 {
		t.Fatalf("keying a fresh AST allocates %.1f objects, want at most 2 (hex key + memo insert)", allocs)
	}
	hits := testing.AllocsPerRun(runs, func() {
		if NormalKey(srcs[0]) != want {
			t.Fatal("memoized NormalKey changed")
		}
	})
	if hits != 0 {
		t.Fatalf("a NormalKey memo hit allocates %.1f objects, want 0", hits)
	}
}
