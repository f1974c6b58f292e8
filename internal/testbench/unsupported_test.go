package testbench

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/resultstore"
	"repro/internal/sim"
	"repro/internal/verilog/ast"
	"repro/internal/verilog/parser"
)

// The register-file lowering sizes every intermediate at compile time, so it
// refuses three constructs: part-selects with dynamic bounds, replications
// with non-constant counts, and intermediates wider than its slot cap. The
// candidates below hold one each, combinational and clocked, over two
// interfaces. The compiled backend runs them on the interpreter.

func unsupportedCombIfc() Interface {
	return Interface{
		Inputs:  []PortSpec{{Name: "a", Width: 64}, {Name: "b", Width: 8}},
		Outputs: []PortSpec{{Name: "y", Width: 64}},
	}
}

func unsupportedSeqIfc() Interface {
	return Interface{
		Inputs:  []PortSpec{{Name: "clk", Width: 1}, {Name: "reset", Width: 1}, {Name: "a", Width: 64}, {Name: "b", Width: 8}},
		Outputs: []PortSpec{{Name: "q", Width: 64}},
		Clock:   "clk",
		Reset:   "reset",
	}
}

// unsupportedGoldens are the verification references: the combinational
// and clocked dynamic part-selects written with a shift and a mask.
var unsupportedGoldens = map[bool]string{
	false: `
module top_module (
    input [63:0] a,
    input [7:0] b,
    output [63:0] y
);
    assign y = (a >> b[2:0]) & 64'hFF;
endmodule
`,
	true: `
module top_module (
    input clk,
    input reset,
    input [63:0] a,
    input [7:0] b,
    output reg [63:0] q
);
    always @(posedge clk)
        if (reset) q <= 64'd0;
        else q <= (q << 8) | ((a >> b[2:0]) & 64'hFF);
endmodule
`,
}

// unsupportedCandidates pins, per candidate, the digest of its ranking
// trace, the digest of its full verification trace and its verdict against
// the golden of its interface.
var unsupportedCandidates = []struct {
	name    string
	seq     bool
	src     string
	rank    string
	verify  string
	verdict bool
}{
	{name: "comb_partsel_dynamic", src: `
module top_module (
    input [63:0] a,
    input [7:0] b,
    output [63:0] y
);
    wire [7:0] hi = b[2:0] + 8'd7;
    assign y = a[hi:b[2:0]];
endmodule
`,
		rank:    "1711e26684f61846255a40ec1127a45a47c0eb1f7d409d624d17c85f5b6d0c61",
		verify:  "6951fb7ae79a7c5961fba46469075a78c08883d2ae2ec40f446708dfb826ef0e",
		verdict: true,
	},
	{name: "comb_partsel_dynamic_wide_base", src: `
module top_module (
    input [63:0] a,
    input [7:0] b,
    output [63:0] y
);
    wire [63:0] big = (a * a) + {8{b}} + 64'hFFFF_FFFF_FFFF_FFFF;
    assign y = big[b[2:0] + 8'd7:b[2:0]];
endmodule
`,
		rank:   "75e4d6197b29c79d68275eb224baee18d35c4994323028291670ff97130a72dd",
		verify: "9accd543832c639c8f14a80b38ae3e69c47ac092abaf558eba20697d7dc1ad2e",
	},
	{name: "comb_repl_dynamic", src: `
module top_module (
    input [63:0] a,
    input [7:0] b,
    output [63:0] y
);
    assign y = {(3'd1 + (b[1] === 1'b1) + (b[0] === 1'b1)){a[15:0]}};
endmodule
`,
		rank:   "35925f81390d349894004d468e4a998e96e80fa2c979dd15712dd1e969955c05",
		verify: "57ec933006bdc5e0af8f0af969134be68b8f9e281c5ad2e6c097020cc58d395f",
	},
	{name: "comb_wide_intermediate", src: `
module top_module (
    input [63:0] a,
    input [7:0] b,
    output [63:0] y
);
    assign y = {1025{a}} >> {b, 3'd0};
endmodule
`,
		rank:   "86e240e3a0025806deba8ae8666556e03043648b6b9e1e1b0835ca65bc7d148e",
		verify: "474f98ac22d19154c3b5aa629ec131b43a31eed3df3b04b6dbbf3a6c72dd98ce",
	},
	{name: "seq_partsel_dynamic", seq: true, src: `
module top_module (
    input clk,
    input reset,
    input [63:0] a,
    input [7:0] b,
    output reg [63:0] q
);
    always @(posedge clk)
        if (reset) q <= 64'd0;
        else q <= (q << 8) | a[b[2:0] + 8'd7:b[2:0]];
endmodule
`,
		rank:    "2aab74f133dfc8adf4e207ce6aedf883c38b95661171d9a4818d10a7e279da4e",
		verify:  "f844cdc2dababf18c8abbf40c7a16534748c25c67791b16ba59afd452d67c4d5",
		verdict: true,
	},
	{name: "seq_partsel_dynamic_lvalue", seq: true, src: `
module top_module (
    input clk,
    input reset,
    input [63:0] a,
    input [7:0] b,
    output reg [63:0] q
);
    always @(posedge clk)
        if (reset) q <= 64'd0;
        else q[b[5:0] + 8'd3:b[5:0]] <= a[3:0];
endmodule
`,
		rank:   "d5ea5cc5036a0d83bd7e65f7a66a9b85a2f1595706afbba80f47650d265ed6d7",
		verify: "3ba2e06e42e0fbee5031ed448a5666cff349ca931641fbf9b15b86f17b1392aa",
	},
	{name: "seq_repl_dynamic", seq: true, src: `
module top_module (
    input clk,
    input reset,
    input [63:0] a,
    input [7:0] b,
    output reg [63:0] q
);
    always @(posedge clk)
        if (reset) q <= 64'd0;
        else q <= {q[31:0], {(b[1:0] + 3'd1){a[7:0]}}};
endmodule
`,
		rank:   "d40a50f4a8189e2cfe6ab0a35edc69417bb55cd0ed11dd85254eb6f4ad540b21",
		verify: "aada1e6be10863445a57a4ef1256bd1f4e601bd3a86dc9053992d259ecc604bc",
	},
	{name: "seq_wide_intermediate", seq: true, src: `
module top_module (
    input clk,
    input reset,
    input [63:0] a,
    input [7:0] b,
    output reg [63:0] q
);
    always @(posedge clk)
        if (reset) q <= 64'd0;
        else q <= q ^ ({1025{a}} >> {b, 3'd0});
endmodule
`,
		rank:   "d761cad4a6a82cdf394169534aebb51daae8e4d830cbc5127ec8901fbc5c3574",
		verify: "0be6ed9b2e311743c79a2846bdb3d527b55cbb357ea08540882507181c855069",
	},
}

// fpDigest hashes a fingerprint trace's case fingerprints and error text.
func fpDigest(tr *FPTrace) string {
	h := sha256.New()
	var b [8]byte
	for _, fp := range tr.CaseFPs {
		binary.LittleEndian.PutUint64(b[:], fp)
		h.Write(b[:])
	}
	if tr.Err != nil {
		h.Write([]byte("ERR:" + tr.Err.Error()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// unsupportedStimuli returns the ranking and verification stimuli of the
// combinational or the clocked interface.
func unsupportedStimuli(seq bool) (rank, verify *Stimulus) {
	ifc := unsupportedCombIfc()
	if seq {
		ifc = unsupportedSeqIfc()
	}
	return NewGenerator(3201).Ranking(ifc), NewGenerator(3202).Verification(ifc)
}

// TestUnsupportedConstructsPinned pins the fingerprints of designs the
// register file refuses, in the ranking path (RunFingerprints) and the
// verification path (VerifyGang and its verdict-cut run): each run must
// equal the interpreter's solo run, stay memoized, and give the pinned
// digests.
func TestUnsupportedConstructsPinned(t *testing.T) {
	ctx := context.Background()
	const top = "top_module"
	for _, c := range unsupportedCandidates {
		t.Run(c.name, func(t *testing.T) {
			src := mustParse(t, c.src)
			if _, err := sim.Compile(src, top); !errors.Is(err, sim.ErrUnsupported) {
				t.Fatalf("Compile: got %v, want ErrUnsupported", err)
			}
			rankSt, verifySt := unsupportedStimuli(c.seq)

			rank := runOne(src, top, rankSt, BackendCompiled)
			fpTraceEqual(t, "ranking vs interpreter", rank, RunBackend(src, top, rankSt, BackendInterpreter).FP())
			if again := runOne(src, top, rankSt, BackendCompiled); again != rank {
				t.Error("a rerun of the ranking batch missed the fingerprint memo")
			}
			if got := fpDigest(rank); got != c.rank {
				t.Errorf("ranking digest = %s, want %s", got, c.rank)
			}

			// The verdict-grade run goes first: once the full trace is
			// memoized, it answers the verdict key too.
			full := soloRun(src, top, verifySt, BackendCompiled)
			fpTraceEqual(t, "verification vs interpreter", full, RunBackend(src, top, verifySt, BackendInterpreter).FP())
			if got := fpDigest(full); got != c.verify {
				t.Errorf("verification digest = %s, want %s", got, c.verify)
			}
			golden := soloRun(mustParse(t, unsupportedGoldens[c.seq]), top, verifySt, BackendCompiled)
			cut, err := runPlan(ctx, []*ast.Source{src}, top, verifySt, BackendCompiled, golden)
			if err != nil {
				t.Fatal(err)
			}
			fpTraceEqual(t, "verdict-cut run", cut[0], cutAt(full, golden))
			verdicts, err := VerifyGang(ctx, []*ast.Source{src}, top, verifySt, BackendCompiled, golden)
			if err != nil {
				t.Fatal(err)
			}
			if verdicts[0] != c.verdict || verdicts[0] != (full.Err == nil && FPAgrees(full, golden)) {
				t.Errorf("verdict = %v, want %v", verdicts[0], c.verdict)
			}
			fpTraceEqual(t, "memoized verification", runOne(src, top, verifySt, BackendCompiled), full)
		})
	}
}

// TestUnsupportedDesignsReachTheStore: a design the register file refuses
// keeps its persistent store record, so a rerun under a fresh stimulus of
// the same content reads every trace back and simulates nothing.
func TestUnsupportedDesignsReachTheStore(t *testing.T) {
	mem := resultstore.NewMemory(64)
	installStore(t, mem)
	var srcs []*ast.Source
	for _, c := range unsupportedCandidates {
		if !c.seq {
			srcs = append(srcs, mustParse(t, c.src))
		}
	}
	stim := func() *Stimulus { return NewGenerator(3203).Ranking(unsupportedCombIfc()) }

	cold := runBatch(srcs, "top_module", stim(), BackendCompiled)
	mid := ReadStoreStats()
	if n, _ := mem.Len(); n != len(srcs) {
		t.Fatalf("store holds %d records, want %d", n, len(srcs))
	}
	warm := runBatch(srcs, "top_module", stim(), BackendCompiled)
	if post := ReadStoreStats(); post.Sims != mid.Sims {
		t.Fatalf("warm rerun simulated %d times, want 0", post.Sims-mid.Sims)
	}
	for i := range srcs {
		sameTraces(t, "warm vs cold", warm[i], cold[i])
	}
}

// BenchmarkUnsupportedConstructs times one unmemoized fingerprint run of
// each candidate above under its ranking and its verification stimulus, on
// the compiled backend's path for designs the register file refuses: the
// interpreter.
func BenchmarkUnsupportedConstructs(b *testing.B) {
	for _, c := range unsupportedCandidates {
		src, err := parser.Parse(c.src)
		if err != nil {
			b.Fatal(err)
		}
		rankSt, verifySt := unsupportedStimuli(c.seq)
		for _, s := range []struct {
			name string
			st   *Stimulus
		}{{"rank", rankSt}, {"verify", verifySt}} {
			b.Run(c.name+"/"+s.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					soloRun(src, "top_module", s.st, BackendCompiled)
				}
			})
		}
	}
}
