// Package core implements VFocus, the paper's three-stage framework for
// LLM Verilog generation:
//
//  1. Pre-ranking sampling and filtering — sample n candidates with retry on
//     syntactically invalid output (up to 5 attempts with growing delay) and
//     apply Density-guided Filtering on reasoning-trace lengths to keep
//     candidates inside the per-model "reasoning sweet spot".
//  2. Ranking — simulate every candidate under an automatically generated
//     printing testbench, cluster candidates by strict behavioral agreement
//     over all test cases, and score R(c) = n - Σ ℓ_strict(c, c')
//     (equivalently, cluster size).
//  3. Post-ranking refinement — mine inconsistencies: intra-cluster (two
//     samples of a top cluster + spec → reasoning-augmented rewrite) and
//     inter-cluster (locate the test case where top clusters disagree; for
//     simple-description tasks let the model judge the expected output and
//     vote, otherwise fall back to focused refinement). Early-exit skips
//     inter-cluster work when one cluster holds ≥90% of candidates.
//
// The same pipeline type also exposes the paper's comparison points as
// configurations: Baseline (random pick), VRank (ranking only), and
// Pre+VRank (pre-ranking + ranking).
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/testbench"
	"repro/internal/verilog/ast"
)

// Sentinel errors.
var (
	// ErrNoCandidates means sampling yielded nothing usable.
	ErrNoCandidates = errors.New("no usable candidates")
	// ErrLLM wraps persistent model failures.
	ErrLLM = errors.New("llm call failed")
)

// Variant selects which framework from the paper's Table I to run.
type Variant int

// Pipeline variants.
const (
	// VariantBaseline picks a random candidate (the paper's random-pick
	// baseline; pass@k is computed over the raw sample pool).
	VariantBaseline Variant = iota + 1
	// VariantVRank is self-consistency ranking only (the VRank row).
	VariantVRank
	// VariantPreVRank adds pre-ranking retry + density filtering before
	// ranking (the Pre+VRank row).
	VariantPreVRank
	// VariantVFocus is the full framework including post-ranking
	// refinement.
	VariantVFocus
)

// String names the variant as in the paper.
func (v Variant) String() string {
	switch v {
	case VariantBaseline:
		return "Baseline"
	case VariantVRank:
		return "VRank"
	case VariantPreVRank:
		return "Pre+VRank"
	case VariantVFocus:
		return "VFocus"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config controls a pipeline run.
type Config struct {
	// Variant selects the framework.
	Variant Variant
	// Samples is n, the number of candidates (the paper uses 50).
	Samples int
	// MaxRetries bounds syntax retries per sample (the paper uses 5).
	MaxRetries int
	// RetryBaseDelay is the first retry delay; it grows linearly with the
	// attempt number. The Sleeper hook makes it testable.
	RetryBaseDelay time.Duration
	// LminPct and LmaxPct are the density-filter percentile bounds on
	// reasoning length. The paper sets Lmax at the 75th percentile for all
	// models and Lmin at the 10th percentile for qwq/o3-mini-high and 0
	// for deepseek-r1.
	LminPct float64
	LmaxPct float64
	// EarlyExitFrac is the dominant-cluster fraction that triggers the
	// early exit (0.90 in the paper).
	EarlyExitFrac float64
	// TopClusters is how many top-ranked clusters refinement considers.
	TopClusters int
	// TBSeed seeds ranking-testbench generation.
	TBSeed int64
	// TBImperfection models weak LLM-generated testbenches (fraction of
	// dropped cases).
	TBImperfection float64
	// SelectSeed seeds representative picks.
	SelectSeed int64
	// Sleeper, when non-nil, replaces time.Sleep during retry backoff.
	Sleeper func(time.Duration)
	// Backend selects the simulation engine for ranking and refinement
	// runs. The zero value is the compiled backend; the interpreter stays
	// available for differential testing.
	Backend testbench.Backend
	// Workers bounds the concurrency of the ranking stage's
	// simulate-and-fingerprint loop. Results are bit-identical for any
	// value. Zero or one runs sequentially; set DefaultWorkers() to use
	// every core (the experiment drivers already parallelize across tasks,
	// so they keep per-pipeline ranking sequential).
	Workers int
	// LLMRetries bounds the pipeline-level transient-retry loops around
	// Generate/Refine/JudgeOutput. Zero selects the default (4). The value
	// also strides the Attempt field of generate requests, so changing it
	// changes the deterministic request stream — keep the default for
	// reproducing published numbers.
	LLMRetries int
}

// DefaultWorkers is the worker-pool size used when a config leaves Workers
// unset: one worker per available CPU. It is the single source of the
// default shared by the experiment drivers (Table I, Fig. 3, Fig. 4) and
// the CLI.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// DefaultConfig returns the paper's settings for a variant and model.
func DefaultConfig(v Variant, model string) Config {
	cfg := Config{
		Variant:        v,
		Samples:        50,
		MaxRetries:     5,
		RetryBaseDelay: time.Millisecond, // simulated backend: keep fast
		LminPct:        0.10,
		LmaxPct:        0.75,
		EarlyExitFrac:  0.90,
		TopClusters:    2,
		TBSeed:         1,
		TBImperfection: 0.30,
		SelectSeed:     1,
	}
	if model == "deepseek-r1" {
		cfg.LminPct = 0 // Fig. 3a: no short-length penalty for deepseek
	}
	return cfg
}

// Candidate is one sampled implementation with its bookkeeping.
type Candidate struct {
	// Index is the sample position (0..n-1).
	Index int
	// Code is the model's Verilog output.
	Code string
	// Source is the parsed code (nil when invalid).
	Source *ast.Source
	// ReasoningTokens is the reasoning-trace length (0 when missing).
	ReasoningTokens int
	// Valid reports syntax + semantic validity.
	Valid bool
	// Retries is how many extra generation attempts were needed.
	Retries int
	// NormLen is the per-task min-max normalized reasoning length
	// (filled by the density filter; -1 when unavailable).
	NormLen float64
	// Filtered marks candidates removed by Density-guided Filtering.
	Filtered bool
	// Trace is the full printed ranking-testbench trace. It stays nil
	// unless refinement materialized it for a cluster representative.
	Trace *testbench.Trace
	// FPTrace is the streaming fingerprint record of the ranking run (nil
	// when invalid or filtered).
	FPTrace *testbench.FPTrace
	// Refined marks candidates produced by post-ranking refinement.
	Refined bool
}

// SimOK reports whether the candidate's ranking simulation ran to
// completion.
func (c *Candidate) SimOK() bool {
	return c.FPTrace != nil && c.FPTrace.Err == nil
}

// Cluster is a strict-agreement behavioral cluster.
type Cluster struct {
	// Members indexes into Result.Candidates.
	Members []int
	// Fingerprint is the shared trace fingerprint.
	Fingerprint uint64
	// Score is the paper's R(c): the cluster size among ranked candidates
	// (plus any inter-cluster refinement boost).
	Score int
	// RefinedIdx indexes refined candidates admitted to this cluster.
	RefinedIdx []int
}

// Result reports one pipeline run on one task.
type Result struct {
	Task eval.Task
	// Final is the selected implementation ("" when nothing usable).
	Final string
	// FinalIndex is the candidate index backing Final (-1 for refined
	// output not in the original pool).
	FinalIndex int
	// Candidates is the sampled pool (plus refined extras appended).
	Candidates []Candidate
	// Clusters are the ranked clusters, largest first.
	Clusters []Cluster
	// EarlyExit reports whether the ≥90% dominant-cluster exit fired.
	EarlyExit bool
	// JudgeVoted reports whether inter-cluster output judging ran.
	JudgeVoted bool
	// RefinedUsed reports whether the final code came from refinement.
	RefinedUsed bool
	// Stats counts model calls.
	Stats CallStats

	// rankingStimulus is retained for the refinement stage.
	rankingStimulus *testbench.Stimulus
}

// CallStats counts LLM and simulation work for cost reporting.
type CallStats struct {
	GenerateCalls int
	RefineCalls   int
	JudgeCalls    int
	SimRuns       int
}

// Pipeline runs the VFocus framework against one model client.
type Pipeline struct {
	client llm.Client
	cfg    Config
}

// New builds a pipeline.
func New(client llm.Client, cfg Config) *Pipeline {
	if cfg.Samples <= 0 {
		cfg.Samples = 50
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 5
	}
	if cfg.TopClusters <= 0 {
		cfg.TopClusters = 2
	}
	if cfg.EarlyExitFrac <= 0 {
		cfg.EarlyExitFrac = 0.90
	}
	if cfg.LLMRetries <= 0 {
		cfg.LLMRetries = 4
	}
	return &Pipeline{client: client, cfg: cfg}
}

// Config returns the pipeline configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// sleep delays with the injected sleeper (or not at all by default in
// simulation; a nil Sleeper with a zero RetryBaseDelay skips sleeping).
func (p *Pipeline) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if p.cfg.Sleeper != nil {
		p.cfg.Sleeper(d)
		return
	}
	time.Sleep(d)
}

// ValidateCandidate parses and semantically checks candidate code through
// the process-wide front-end memo (eval.ValidateCached), returning the
// shared AST and whether the candidate is eligible for ranking. It is the
// same gate the pipeline applies to generated samples, exported for callers
// (the daemon) that accept externally supplied candidate pools. The memo
// shares one AST per distinct text with the oracle and the simulated
// clients, which also concentrates the simulator's AST-keyed design-key
// memo.
func ValidateCandidate(code string) (*ast.Source, bool) {
	return eval.ValidateCached(code)
}

// generateOne samples one candidate. Retry policy depends on the variant:
// VFocus-grade pipelines retry invalid output up to MaxRetries with growing
// delay; plain VRank/Baseline accept the first completion as-is (the paper
// notes VRank "lacks mechanisms to ... verify sample validity"). Transient
// API errors are always retried.
func (p *Pipeline) generateOne(ctx context.Context, task eval.Task, sampleIdx int) (Candidate, error) {
	retrySyntax := p.cfg.Variant == VariantPreVRank || p.cfg.Variant == VariantVFocus
	maxAttempts := 1
	if retrySyntax {
		maxAttempts = p.cfg.MaxRetries
	}
	cand := Candidate{Index: sampleIdx, NormLen: -1}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		resp, err := withLLMRetry(ctx, p, func(t int) (llm.Response, error) {
			return p.client.Generate(ctx, llm.GenerateRequest{
				TaskID:      task.ID,
				Spec:        task.Spec,
				Guidelines:  Guidelines,
				SampleIndex: sampleIdx,
				Attempt:     attempt*p.cfg.LLMRetries + t,
			})
		})
		if err != nil {
			return cand, err
		}
		src, ok := ValidateCandidate(resp.Code)
		cand.Code = resp.Code
		cand.ReasoningTokens = resp.ReasoningTokens
		cand.Source = src
		cand.Valid = ok
		cand.Retries = attempt
		if ok || !retrySyntax {
			return cand, nil
		}
		p.sleep(p.cfg.RetryBaseDelay * time.Duration(attempt+1))
	}
	return cand, nil // still invalid after retries: keep, it will rank last
}

// withLLMRetry makes one LLM call, call(t) for attempt t, retrying
// ErrTransient failures up to LLMRetries attempts with linear backoff, as
// production API clients do. Any other failure is wrapped as ErrLLM, which
// refinement treats as best-effort, unless ctx is done: then the error is
// ctx's own, so a cancelled run is never mistaken for a failed model call.
func withLLMRetry[R any](ctx context.Context, p *Pipeline, call func(t int) (R, error)) (R, error) {
	var zero R
	var lastErr error
	for t := 0; t < p.cfg.LLMRetries; t++ {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		resp, err := call(t)
		if err == nil {
			return resp, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return zero, cerr
		}
		lastErr = err
		if !errors.Is(err, llm.ErrTransient) {
			return zero, fmt.Errorf("%w: %v", ErrLLM, err)
		}
		p.sleep(p.cfg.RetryBaseDelay * time.Duration(t+1))
	}
	return zero, fmt.Errorf("%w: %v", ErrLLM, lastErr)
}

// retrySampleStride offsets a refine or judge request's SampleIndex on each
// transient retry, so the retry draws fresh randomness.
const retrySampleStride = 1000

// Guidelines is the prompt-engineering preamble applied at the sampling
// stage (general tips plus typical LLM Verilog mistakes, following the
// paper's citations of VerilogCoder and MAGE).
const Guidelines = `You are an expert Verilog designer. Follow these rules:
- Declare every output driven from an always block as reg.
- Use non-blocking assignments (<=) in clocked always blocks and blocking (=) in combinational ones.
- Reset synchronously unless the spec says otherwise, and reset every state register.
- Cover all case values or provide a default arm to avoid unintended latches.
- Mind vector widths: size literals (e.g. 4'd1) and match port widths exactly.
- Do not introduce extra state; derive combinational outputs with assign where possible.`

// Run executes the configured variant on one task.
func (p *Pipeline) Run(ctx context.Context, task eval.Task) (*Result, error) {
	res := &Result{
		Task:       task,
		FinalIndex: -1,
		// Sized for the sample pool; refinement may append a few extras.
		Candidates: make([]Candidate, 0, p.cfg.Samples),
	}

	// Stage 1: sampling (+ validity retry for VFocus-grade variants).
	for i := 0; i < p.cfg.Samples; i++ {
		cand, err := p.generateOne(ctx, task, i)
		if err != nil {
			return nil, err
		}
		res.Stats.GenerateCalls += cand.Retries + 1
		res.Candidates = append(res.Candidates, cand)
	}

	if p.cfg.Variant == VariantBaseline {
		p.pickBaseline(res)
		return res, nil
	}

	// Stage 1b: Density-guided Filtering (Pre+VRank and VFocus).
	if p.cfg.Variant == VariantPreVRank || p.cfg.Variant == VariantVFocus {
		if err := p.densityFilter(ctx, res); err != nil {
			return nil, err
		}
	}

	// Stage 2: ranking by simulation consistency.
	if err := p.rank(ctx, res); err != nil {
		return nil, err
	}

	// Stage 3: post-ranking refinement (VFocus only).
	if p.cfg.Variant == VariantVFocus && len(res.Clusters) > 0 {
		if err := p.refine(ctx, res); err != nil {
			return nil, err
		}
	}

	p.pickFinal(res)
	return res, nil
}
