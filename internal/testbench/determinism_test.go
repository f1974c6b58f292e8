package testbench

import (
	"sync"
	"testing"
)

// stimulusDigest folds every generated stimulus value (in case/step/drive
// order) into one FNV-1a hash — a stable identity for the whole stream.
func stimulusDigest(st *Stimulus) uint64 {
	h := fnvOffset64
	for ci := 0; ci < st.NumCases(); ci++ {
		c := st.Case(ci)
		for si := range c.Steps {
			step := &c.Steps[si]
			for _, name := range step.driveOrder() {
				h = fnvString(h, name)
				h = fnvByte(h, '=')
				h = fnvString(h, step.Inputs[name].String())
				h = fnvByte(h, '\n')
			}
		}
	}
	return h
}

// Locked digests of the generator's output for fixed (seed, interface)
// pairs. These pin the xrng-driven stimulus byte stream: a refactor that
// shifts the stream (reordered draws, a different RNG, changed generation
// structure) regenerates every trace in every experiment, so it must fail
// loudly here, not silently re-tune the artifacts.
const (
	lockedSeqRankingDigest  = 0xce2ee02cd2492aac
	lockedSeqVerifyDigest   = 0x856e3a080f78bc03
	lockedCombRankingDigest = 0xac6bfbbd8285105d
)

// TestStimulusStreamLocked is the stimulus-stream determinism golden: the
// generator must reproduce the locked streams exactly, and regeneration must
// be bit-identical (including across concurrent generations, which is how
// ranking workers consume cached stimuli).
func TestStimulusStreamLocked(t *testing.T) {
	seqRank := NewGenerator(42).Ranking(seqIfc())
	if got := stimulusDigest(seqRank); got != lockedSeqRankingDigest {
		t.Errorf("sequential ranking stimulus digest = %#x, want %#x", got, uint64(lockedSeqRankingDigest))
	}
	seqVerify := NewGenerator(42).Verification(seqIfc())
	if got := stimulusDigest(seqVerify); got != lockedSeqVerifyDigest {
		t.Errorf("sequential verification stimulus digest = %#x, want %#x", got, uint64(lockedSeqVerifyDigest))
	}
	combRank := NewGenerator(7).Ranking(combIfc())
	if got := stimulusDigest(combRank); got != lockedCombRankingDigest {
		t.Errorf("combinational ranking stimulus digest = %#x, want %#x", got, uint64(lockedCombRankingDigest))
	}

	// Regeneration, including concurrent, is bit-identical.
	var wg sync.WaitGroup
	digests := make([]uint64, 8)
	for i := range digests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			digests[i] = stimulusDigest(NewGenerator(42).Verification(seqIfc()))
		}(i)
	}
	wg.Wait()
	for i, d := range digests {
		if d != lockedSeqVerifyDigest {
			t.Fatalf("concurrent regeneration %d drifted: %#x", i, d)
		}
	}
}

// TestStimulusCacheSingleFlight: callers that miss the stimulus memo at the
// same moment share one build. The fingerprint memo keys runs by *Stimulus,
// so a second build under the same key would make its holders miss every
// memo entry written under the first.
func TestStimulusCacheSingleFlight(t *testing.T) {
	const rounds, callers = 50, 16
	ifc := seqIfc()
	for round := 0; round < rounds; round++ {
		seed := int64(1)<<40 + int64(round) // a key no other test builds
		gate := make(chan struct{})
		got := make([]*Stimulus, callers)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-gate
				got[i] = VerificationCached(seed, ifc)
			}(i)
		}
		close(gate)
		wg.Wait()
		for i, st := range got {
			if st != got[0] {
				t.Fatalf("round %d: caller %d got stimulus %p, caller 0 got %p", round, i, st, got[0])
			}
		}
	}
}

// TestStimulusIdenticalAcrossBackendsAndWorkers: the stimulus a run consumes
// is independent of simulation backend and worker count — the cached
// stimulus object is literally shared, and its compiled schedule resolves to
// the same drive bytes everywhere. Fingerprints of the same design under the
// same stimulus must therefore agree across backends, and concurrent
// schedule use from many goroutines (the Workers path) must not perturb the
// stream.
func TestStimulusIdenticalAcrossBackendsAndWorkers(t *testing.T) {
	st := RankingCached(33, 0, seqIfc())
	if st2 := RankingCached(33, 0, seqIfc()); st2 != st {
		t.Fatal("cached stimulus not shared")
	}
	src := mustParse(t, schedSeqSrc4bitAdapter)
	want := runOne(src, "top_module", st, BackendCompiled)
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	interp := runOne(src, "top_module", st, BackendInterpreter)
	if !FPAgrees(want, interp) {
		t.Fatal("backends disagree under the shared stimulus")
	}
	// Simulate the ranking pool: many workers running the same stimulus
	// concurrently through the shared schedule.
	var wg sync.WaitGroup
	results := make([]*FPTrace, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			backend := BackendCompiled
			if i%4 == 3 {
				backend = BackendInterpreter
			}
			results[i] = runOne(src, "top_module", st, backend)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if !FPAgrees(want, r) {
			t.Fatalf("worker %d diverged", i)
		}
	}
}

// schedSeqSrc4bitAdapter matches seqIfc (d[3:0], q[3:0]).
const schedSeqSrc4bitAdapter = `
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
