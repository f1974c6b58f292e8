package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/testbench"
)

func pickTask(t *testing.T, id string) eval.Task {
	t.Helper()
	for _, task := range eval.Suite() {
		if task.ID == id {
			return task
		}
	}
	t.Fatalf("task %q not found", id)
	return eval.Task{}
}

func newPipeline(t *testing.T, v Variant, model string, tasks []eval.Task, samples int) *Pipeline {
	t.Helper()
	profile, err := llm.ProfileByName(model)
	if err != nil {
		t.Fatal(err)
	}
	client, err := llm.NewSimClient(profile, 11, tasks)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(v, model)
	cfg.Samples = samples
	cfg.RetryBaseDelay = 0
	return New(client, cfg)
}

func TestVariantString(t *testing.T) {
	for v, want := range map[Variant]string{
		VariantBaseline: "Baseline",
		VariantVRank:    "VRank",
		VariantPreVRank: "Pre+VRank",
		VariantVFocus:   "VFocus",
		Variant(99):     "Variant(99)",
	} {
		if v.String() != want {
			t.Errorf("%d = %q, want %q", int(v), v.String(), want)
		}
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(VariantVFocus, "deepseek-r1")
	if cfg.LminPct != 0 {
		t.Error("deepseek should have Lmin=0 per Fig. 3a")
	}
	cfg2 := DefaultConfig(VariantVFocus, "qwq-32b")
	if cfg2.LminPct != 0.10 {
		t.Error("qwq should drop the shortest 10%")
	}
	if cfg2.LmaxPct != 0.75 {
		t.Error("Lmax should be the 75th percentile")
	}
	if cfg2.EarlyExitFrac != 0.90 {
		t.Error("early exit at 90%")
	}
	if cfg2.MaxRetries != 5 {
		t.Error("paper retries 5 times")
	}
}

func TestBaselineRun(t *testing.T) {
	task := pickTask(t, "cmb_gate_00_and2")
	pipe := newPipeline(t, VariantBaseline, "deepseek-r1", []eval.Task{task}, 10)
	res, err := pipe.Run(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 10 {
		t.Fatalf("candidates = %d", len(res.Candidates))
	}
	if res.Final == "" || res.FinalIndex < 0 {
		t.Error("baseline must pick something")
	}
	if len(res.Clusters) != 0 {
		t.Error("baseline must not cluster")
	}
	for _, c := range res.Candidates {
		if c.Filtered {
			t.Error("baseline must not filter")
		}
	}
}

func TestVRankClusters(t *testing.T) {
	task := pickTask(t, "seq_cnt_00_bin4")
	pipe := newPipeline(t, VariantVRank, "deepseek-r1", []eval.Task{task}, 20)
	res, err := pipe.Run(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("no clusters")
	}
	// Clusters sorted by score, and scores equal member counts.
	prev := 1 << 30
	total := 0
	for _, cl := range res.Clusters {
		if cl.Score > prev {
			t.Error("clusters not sorted by score")
		}
		prev = cl.Score
		if cl.Score != len(cl.Members) {
			t.Errorf("score %d != members %d", cl.Score, len(cl.Members))
		}
		total += len(cl.Members)
	}
	valid := 0
	for _, c := range res.Candidates {
		if c.Valid && c.SimOK() {
			valid++
		}
	}
	if total != valid {
		t.Errorf("clustered %d != simulated-ok %d", total, valid)
	}
	// The final pick must come from the top cluster.
	found := false
	for _, m := range res.Clusters[0].Members {
		if m == res.FinalIndex {
			found = true
		}
	}
	if !found {
		t.Error("final pick not in top cluster")
	}
	// No refinement in VRank.
	if res.Stats.RefineCalls != 0 || res.Stats.JudgeCalls != 0 {
		t.Error("VRank must not refine")
	}
}

func TestDensityFilterBounds(t *testing.T) {
	task := pickTask(t, "seq_fsm_03")
	pipe := newPipeline(t, VariantPreVRank, "qwq-32b", []eval.Task{task}, 30)
	res, err := pipe.Run(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, c := range res.Candidates {
		if !c.Valid {
			continue
		}
		if c.Filtered {
			if c.NormLen > pipe.Config().LminPct && c.NormLen < pipe.Config().LmaxPct && c.ReasoningTokens > 0 {
				t.Errorf("candidate %d filtered inside the sweet spot (norm=%v)", c.Index, c.NormLen)
			}
		} else {
			kept++
			if c.ReasoningTokens > 0 && c.NormLen >= 0 {
				if c.NormLen <= pipe.Config().LminPct-1e-9 || c.NormLen >= pipe.Config().LmaxPct+1e-9 {
					t.Errorf("candidate %d kept outside the sweet spot (norm=%v)", c.Index, c.NormLen)
				}
			}
		}
	}
	if kept == 0 {
		t.Error("filter kept nothing")
	}
}

func TestVFocusRefinesAndStaysSound(t *testing.T) {
	tasks := []eval.Task{
		pickTask(t, "seq_rec_00_101_overlap"),
		pickTask(t, "cmb_kmap_03"),
		pickTask(t, "seq_cnt_07_bcd2"),
	}
	pipe := newPipeline(t, VariantVFocus, "qwq-32b", tasks, 30)
	refines := 0
	for _, task := range tasks {
		res, err := pipe.Run(context.Background(), task)
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		if res.Final == "" {
			t.Errorf("%s: empty final", task.ID)
		}
		refines += res.Stats.RefineCalls + res.Stats.JudgeCalls
		for _, c := range res.Candidates {
			if c.Refined && !c.SimOK() {
				t.Errorf("%s: admitted refined candidate without clean simulation", task.ID)
			}
		}
	}
	if refines == 0 {
		t.Error("VFocus never refined across three tasks")
	}
}

func TestEarlyExitSkipsInterCluster(t *testing.T) {
	// An ultra-easy task: one dominant cluster, so early exit must fire
	// and no judge call should happen.
	task := pickTask(t, "cmb_gate_00_and2")
	pipe := newPipeline(t, VariantVFocus, "deepseek-r1", []eval.Task{task}, 30)
	res, err := pipe.Run(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if !res.EarlyExit {
		t.Skip("dominant cluster did not reach 90% on this seed")
	}
	if res.JudgeVoted {
		t.Error("early exit must skip inter-cluster judging")
	}
	if res.Stats.RefineCalls > 1 {
		t.Errorf("early exit should refine only the top cluster, got %d calls", res.Stats.RefineCalls)
	}
}

// --- mock client for failure-path tests -----------------------------------------

type mockClient struct {
	name      string
	genFn     func(req llm.GenerateRequest) (llm.Response, error)
	refineFn  func(req llm.RefineRequest) (llm.Response, error)
	judgeFn   func(req llm.JudgeRequest) (llm.JudgeResponse, error)
	genCalls  int
	refCalls  int
	judgeCall int
}

var _ llm.Client = (*mockClient)(nil)

func (m *mockClient) ModelName() string { return m.name }

func (m *mockClient) Generate(_ context.Context, req llm.GenerateRequest) (llm.Response, error) {
	m.genCalls++
	return m.genFn(req)
}

func (m *mockClient) Refine(_ context.Context, req llm.RefineRequest) (llm.Response, error) {
	m.refCalls++
	if m.refineFn == nil {
		return llm.Response{}, llm.ErrTransient
	}
	return m.refineFn(req)
}

func (m *mockClient) JudgeOutput(_ context.Context, req llm.JudgeRequest) (llm.JudgeResponse, error) {
	m.judgeCall++
	if m.judgeFn == nil {
		return llm.JudgeResponse{}, llm.ErrTransient
	}
	return m.judgeFn(req)
}

func TestTransientRetryThenSuccess(t *testing.T) {
	task := pickTask(t, "cmb_gate_00_and2")
	fails := 2
	mock := &mockClient{
		name: "mock",
		genFn: func(req llm.GenerateRequest) (llm.Response, error) {
			if fails > 0 {
				fails--
				return llm.Response{}, fmt.Errorf("%w: rate limited", llm.ErrTransient)
			}
			return llm.Response{Code: task.Golden, ReasoningTokens: 100}, nil
		},
	}
	var slept []time.Duration
	cfg := DefaultConfig(VariantVRank, "mock")
	cfg.Samples = 3
	cfg.RetryBaseDelay = time.Millisecond
	cfg.Sleeper = func(d time.Duration) { slept = append(slept, d) }
	pipe := New(mock, cfg)
	res, err := pipe.Run(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final == "" {
		t.Error("no final pick")
	}
	if len(slept) != 2 {
		t.Errorf("expected 2 backoff sleeps, got %d", len(slept))
	}
	if len(slept) == 2 && slept[1] <= slept[0] {
		t.Error("backoff should grow")
	}
}

func TestPersistentTransientFails(t *testing.T) {
	task := pickTask(t, "cmb_gate_00_and2")
	mock := &mockClient{
		name: "mock",
		genFn: func(req llm.GenerateRequest) (llm.Response, error) {
			return llm.Response{}, fmt.Errorf("%w: always down", llm.ErrTransient)
		},
	}
	cfg := DefaultConfig(VariantVRank, "mock")
	cfg.Samples = 2
	cfg.RetryBaseDelay = 0
	pipe := New(mock, cfg)
	_, err := pipe.Run(context.Background(), task)
	if !errors.Is(err, ErrLLM) {
		t.Errorf("got %v, want ErrLLM", err)
	}
}

func TestSyntaxRetryOnlyForPrerankVariants(t *testing.T) {
	task := pickTask(t, "cmb_gate_00_and2")
	broken := "module top_module (input a" // never valid
	mkMock := func() *mockClient {
		return &mockClient{
			name: "mock",
			genFn: func(req llm.GenerateRequest) (llm.Response, error) {
				if req.Attempt >= 4 {
					return llm.Response{Code: task.Golden, ReasoningTokens: 50}, nil
				}
				return llm.Response{Code: broken, ReasoningTokens: 50}, nil
			},
		}
	}

	// VRank: accepts the first (broken) completion.
	cfgV := DefaultConfig(VariantVRank, "mock")
	cfgV.Samples = 1
	cfgV.RetryBaseDelay = 0
	resV, err := New(mkMock(), cfgV).Run(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if resV.Candidates[0].Valid {
		t.Error("VRank candidate should be the broken first attempt")
	}

	// VFocus: retries until the golden arrives.
	cfgF := DefaultConfig(VariantVFocus, "mock")
	cfgF.Samples = 1
	cfgF.RetryBaseDelay = 0
	resF, err := New(mkMock(), cfgF).Run(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if !resF.Candidates[0].Valid {
		t.Error("VFocus should retry to a valid candidate")
	}
	if resF.Candidates[0].Retries == 0 {
		t.Error("retry count not recorded")
	}
}

func TestAllInvalidPoolStillReturns(t *testing.T) {
	task := pickTask(t, "cmb_gate_00_and2")
	mock := &mockClient{
		name: "mock",
		genFn: func(req llm.GenerateRequest) (llm.Response, error) {
			return llm.Response{Code: "garbage !!", ReasoningTokens: 10}, nil
		},
	}
	cfg := DefaultConfig(VariantVFocus, "mock")
	cfg.Samples = 3
	cfg.RetryBaseDelay = 0
	res, err := New(mock, cfg).Run(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final == "" {
		t.Error("pipeline should fall back to the raw first sample")
	}
	if len(res.Clusters) != 0 {
		t.Error("invalid candidates must not cluster")
	}
}

func TestDeterministicPipeline(t *testing.T) {
	task := pickTask(t, "seq_shr_01_sipo8")
	run := func() *Result {
		pipe := newPipeline(t, VariantVFocus, "o3-mini-high", []eval.Task{task}, 20)
		res, err := pipe.Run(context.Background(), task)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Final != b.Final {
		t.Error("pipeline not deterministic")
	}
	if len(a.Clusters) != len(b.Clusters) {
		t.Error("cluster structure not deterministic")
	}
}

func TestGuidelinesMentionKeyRules(t *testing.T) {
	for _, want := range []string{"non-blocking", "reg", "default", "width"} {
		if !containsFold(Guidelines, want) {
			t.Errorf("guidelines missing %q", want)
		}
	}
}

func containsFold(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			match := true
			for j := 0; j < len(sub); j++ {
				a, b := s[i+j], sub[j]
				if 'A' <= a && a <= 'Z' {
					a += 32
				}
				if 'A' <= b && b <= 'Z' {
					b += 32
				}
				if a != b {
					match = false
					break
				}
			}
			if match {
				return true
			}
		}
		return false
	})()
}

func TestTraceAgreementSymmetry(t *testing.T) {
	// Ranking uses strict agreement; spot-check the agreement helpers from
	// the pipeline's perspective on a real task: cluster members agree on
	// their fingerprints, and on the referee's solo printed traces.
	task := pickTask(t, "cmb_add_03_add8")
	res := runPipeline(t, task, VariantVRank, "deepseek-r1", 12, func(*Config) {})
	checkPipeline(t, task.ID, res, testbench.BackendCompiled)
	for _, cl := range res.Clusters {
		first := &res.Candidates[cl.Members[0]]
		if first.FPTrace == nil || first.Trace != nil {
			t.Fatal("ranking must keep fingerprint records and no printed traces")
		}
		for _, m := range cl.Members[1:] {
			if !testbench.FPAgrees(first.FPTrace, res.Candidates[m].FPTrace) {
				t.Error("fingerprint cluster members disagree")
			}
		}
	}
}

// cancellingClient cancels the run's context inside one kind of call and
// returns the context's error, as a real client does when its request is
// cut short. "refine" covers both refinement calls, Refine and JudgeOutput.
type cancellingClient struct {
	llm.Client
	cancel context.CancelFunc
	in     string // "generate" or "refine"
	hit    bool
}

func (c *cancellingClient) cut(ctx context.Context) error {
	c.hit = true
	c.cancel()
	return ctx.Err()
}

func (c *cancellingClient) Generate(ctx context.Context, req llm.GenerateRequest) (llm.Response, error) {
	if c.in == "generate" {
		return llm.Response{}, c.cut(ctx)
	}
	return c.Client.Generate(ctx, req)
}

func (c *cancellingClient) Refine(ctx context.Context, req llm.RefineRequest) (llm.Response, error) {
	if c.in == "refine" {
		return llm.Response{}, c.cut(ctx)
	}
	return c.Client.Refine(ctx, req)
}

func (c *cancellingClient) JudgeOutput(ctx context.Context, req llm.JudgeRequest) (llm.JudgeResponse, error) {
	if c.in == "refine" {
		return llm.JudgeResponse{}, c.cut(ctx)
	}
	return c.Client.JudgeOutput(ctx, req)
}

// TestLLMCancelNotSwallowed: a run cancelled inside an LLM call must fail
// with the context's error, never with ErrLLM. Refinement treats ErrLLM as
// best-effort and keeps the ranked result, so a cancel read as ErrLLM would
// let a cancelled run return a Final as if it had succeeded.
func TestLLMCancelNotSwallowed(t *testing.T) {
	tasks := eval.Suite()[:3]
	profile, err := llm.ProfileByName("qwq-32b")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := llm.NewSimClient(profile, 11, tasks)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{"generate", "refine"} {
		t.Run(in, func(t *testing.T) {
			hit := false
			for _, task := range tasks {
				ctx, cancel := context.WithCancel(context.Background())
				client := &cancellingClient{Client: sim, cancel: cancel, in: in}
				cfg := DefaultConfig(VariantVFocus, profile.Name)
				cfg.Samples = 10
				cfg.RetryBaseDelay = 0
				res, err := New(client, cfg).Run(ctx, task)
				cancel()
				if !client.hit {
					continue // this task never reached the call
				}
				hit = true
				if !errors.Is(err, context.Canceled) || errors.Is(err, ErrLLM) {
					t.Fatalf("%s: cancel inside %s: err = %v (result %v), want context.Canceled and not ErrLLM", task.ID, in, err, res != nil)
				}
			}
			if !hit {
				t.Fatalf("premise: no task reached a %s call", in)
			}
		})
	}
}
