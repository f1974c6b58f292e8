package testbench_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/eval"
	"repro/internal/testbench"
)

// Pinned digests of generated stimulus content. The stimulus content hash is
// the stimulus half of every persistent-store key, so a change here orphans
// every existing disk store; RenderVerilog output is what benchgen exports.
const (
	pinnedSuiteContentDigest = "34633113f2967451c1cf1748f06b354130bd3ac12eef2386821404c4707832af"
	pinnedRenderCombDigest   = "fbebb4d8f05b67e6d0ed3c310e4e724c35a504fd65f26e931da3b956f79d7753"
	pinnedRenderSeqDigest    = "8b82522890270492fb7a4fbf568b062f7c47b7dc7f19c767cdf04480e09483e1"
)

// TestStimulusContentPinned folds the content hash of every cached suite
// stimulus — ranking at imperfection 0 and 0.30, and verification — at seeds
// 1 and 8 into one SHA-256, and pins the rendered Verilog bench of one
// combinational and one sequential task as benchgen builds it.
func TestStimulusContentPinned(t *testing.T) {
	suite := eval.Suite()
	h := sha256.New()
	for _, seed := range []int64{1, 8} {
		for _, tk := range suite {
			for _, st := range []*testbench.Stimulus{
				testbench.RankingCached(seed, 0, tk.Ifc),
				testbench.RankingCached(seed, 0.30, tk.Ifc),
				testbench.VerificationCached(seed, tk.Ifc),
			} {
				ch := testbench.StimulusContentHash(st)
				if ch == "" {
					t.Fatalf("%s seed %d: generated stimulus has no content hash", tk.ID, seed)
				}
				h.Write([]byte(ch))
				h.Write([]byte{'\n'})
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedSuiteContentDigest {
		t.Errorf("suite stimulus content digest = %s, want %s", got, pinnedSuiteContentDigest)
	}

	byID := make(map[string]*eval.Task, len(suite))
	for i := range suite {
		byID[suite[i].ID] = &suite[i]
	}
	for _, c := range []struct {
		id   string
		want string
	}{
		// Random sampling across 16-bit ports; reset plus data inputs.
		{"cmb_mux_04_mux4x16", pinnedRenderCombDigest},
		{"seq_dff_05_en_reset", pinnedRenderSeqDigest},
	} {
		tk := byID[c.id]
		if tk == nil {
			t.Fatalf("suite has no task %s", c.id)
		}
		st := testbench.NewGenerator(1 + int64(tk.Index)).Ranking(tk.Ifc)
		sum := sha256.Sum256([]byte(testbench.RenderVerilog(st, eval.TopModule)))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: rendered bench digest = %s, want %s", c.id, got, c.want)
		}
	}
}
