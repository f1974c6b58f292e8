package exp

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/testbench"
)

// Fig3Config parameterizes the Fig. 3 reproduction: functional correctness
// versus per-problem normalized reasoning length.
type Fig3Config struct {
	// Models to analyze (paper: deepseek-r1, o3-mini-high, qwq-32b,
	// o3-mini-medium).
	Models []string
	// Tasks is the benchmark (defaults to the full suite).
	Tasks []eval.Task
	// Samples per task (paper: 50, i.e. 7800 samples per model).
	Samples int
	// Bins is the number of normalized-length buckets.
	Bins int
	// Seed drives all randomness.
	Seed int64
	// Workers sizes the one pool that runs every (task, model) cell,
	// task-major (defaults to core.DefaultWorkers()).
	Workers int
	// Backend selects the simulation engine (zero value: compiled).
	Backend testbench.Backend
	// NewClient, when non-nil, replaces llm.NewSimClient as the source of
	// per-task clients (HTTP backend or fixture replay).
	NewClient ClientFactory
}

// Fig3Series is one model's panel.
type Fig3Series struct {
	Model string
	// Bins are pass rates per normalized-length bucket; Count shows the
	// sample density (the circles in the paper's plot).
	Bins []metrics.Bin
	// Fit is the quadratic trend line.
	Fit metrics.QuadFit
	// Total and Dropped count samples (dropped = syntactically incomplete
	// after retries, or missing reasoning trace — excluded per the paper).
	Total   int
	Dropped int
}

// Fig3Result is the full reproduction of Fig. 3.
type Fig3Result struct {
	Config Fig3Config
	Series []Fig3Series
}

// RunFig3 reproduces Fig. 3: for every model it samples candidates for every
// task, verifies each against the golden testbench, normalizes reasoning
// lengths per task to [0,1], and reports binned pass rates plus a quadratic
// trend fit.
func RunFig3(ctx context.Context, cfg Fig3Config) (*Fig3Result, error) {
	if len(cfg.Tasks) == 0 {
		cfg.Tasks = eval.Suite()
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 50
	}
	if cfg.Bins <= 0 {
		cfg.Bins = 10
	}
	if cfg.Workers <= 0 {
		cfg.Workers = core.DefaultWorkers()
	}
	if len(cfg.Models) == 0 {
		cfg.Models = []string{"deepseek-r1", "o3-mini-high", "qwq-32b", "o3-mini-medium"}
	}
	profiles, err := resolveProfiles(cfg.Models)
	if err != nil {
		return nil, err
	}
	oracle := NewOracle(cfg.Tasks, cfg.Seed+7)
	oracle.Backend = cfg.Backend

	// Cells run task-major, (task, model), on one pool.
	nm := len(cfg.Models)
	cells := make([]taskFig3, len(cfg.Tasks)*nm)
	err = core.RunUnits(ctx, len(cells), cfg.Workers, nil, func(c int) error {
		mi := c % nm
		out, err := fig3Task(ctx, cfg, oracle, profiles[mi], cfg.Tasks[c/nm])
		if err != nil {
			return fmt.Errorf("model %s: %w", cfg.Models[mi], err)
		}
		cells[c] = out
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Fig3Result{Config: cfg}
	for mi, model := range cfg.Models {
		series := Fig3Series{Model: model}
		var allNorm []float64
		var allPassed []bool
		for c := mi; c < len(cells); c += nm {
			allNorm = append(allNorm, cells[c].norm...)
			allPassed = append(allPassed, cells[c].passed...)
			series.Total += cells[c].total
			series.Dropped += cells[c].dropped
		}
		series.Bins = metrics.BinPassRates(allNorm, allPassed, cfg.Bins)
		var xs, ys []float64
		for _, b := range series.Bins {
			if b.Count == 0 {
				continue
			}
			xs = append(xs, b.Center())
			ys = append(ys, b.PassRate)
		}
		if len(xs) >= 3 {
			fit, ferr := metrics.FitQuadratic(xs, ys)
			if ferr == nil {
				series.Fit = fit
			}
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// taskFig3 is the per-(task, model) sample summary.
type taskFig3 struct {
	norm    []float64
	passed  []bool
	total   int
	dropped int
}

// fig3Task samples one task, verifies the valid samples as one batch, and
// normalizes their reasoning lengths.
func fig3Task(ctx context.Context, cfg Fig3Config, oracle *Oracle, profile llm.Profile, task eval.Task) (taskFig3, error) {
	var out taskFig3
	client, err := mintClient(cfg.NewClient, profile, cfg.Seed, []eval.Task{task})
	if err != nil {
		return out, err
	}
	var tokens []int
	var codes []string
	for i := 0; i < cfg.Samples; i++ {
		out.total++
		resp, gerr := client.Generate(ctx, llm.GenerateRequest{
			TaskID:      task.ID,
			Spec:        task.Spec,
			SampleIndex: i,
		})
		if gerr != nil {
			// Transient failures count as dropped samples here; the
			// pre-ranking experiments handle retries.
			out.dropped++
			continue
		}
		if resp.ReasoningTokens <= 0 {
			out.dropped++ // missing reasoning trace: removed from the graph
			continue
		}
		if _, ok := core.ValidateCandidate(resp.Code); !ok {
			out.dropped++ // syntactically incomplete: removed from the graph
			continue
		}
		tokens = append(tokens, resp.ReasoningTokens)
		codes = append(codes, resp.Code)
	}
	passed, err := oracle.VerifyBatch(ctx, task.ID, codes)
	if err != nil {
		return out, err
	}
	if len(tokens) < 2 {
		return out, nil
	}
	minT, maxT := slices.Min(tokens), slices.Max(tokens)
	span := maxT - minT
	for _, t := range tokens {
		n := 0.5
		if span > 0 {
			n = float64(t-minT) / float64(span)
		}
		out.norm = append(out.norm, n)
	}
	out.passed = passed
	return out, nil
}

// Render formats the result as aligned bin tables, one panel per model.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 3: Output pass rate vs normalized reasoning length\n")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "\n(%s)  samples=%d dropped=%d   trend: %.3f %+.3f·x %+.3f·x²\n",
			s.Model, s.Total, s.Dropped, s.Fit.A, s.Fit.B, s.Fit.C)
		fmt.Fprintf(&b, "  %-12s %-10s %-10s %s\n", "norm-length", "samples", "pass-rate", "trend")
		for _, bin := range s.Bins {
			fmt.Fprintf(&b, "  [%.1f,%.1f)    %-10d %-10.3f %.3f\n",
				bin.Lo, bin.Hi, bin.Count, bin.PassRate, s.Fit.Eval(bin.Center()))
		}
	}
	return b.String()
}

// SortedModels returns series order by model name (stable rendering).
func (r *Fig3Result) SortedModels() []string {
	names := make([]string, len(r.Series))
	for i, s := range r.Series {
		names[i] = s.Model
	}
	sort.Strings(names)
	return names
}
