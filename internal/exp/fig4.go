package exp

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/testbench"
)

// Fig4Config parameterizes the Fig. 4 reproduction: pass@1 versus the number
// of sampled candidates.
type Fig4Config struct {
	// Models to evaluate (paper: deepseek-r1, o3-mini-high, qwq-32b).
	Models []string
	// Tasks is the benchmark (defaults to the full suite).
	Tasks []eval.Task
	// SampleSizes are the n values (paper: 5,10,...,50).
	SampleSizes []int
	// Runs averages each point (paper: 10).
	Runs int
	// Seed drives all randomness.
	Seed int64
	// Workers sizes the one pool that runs every (task, run, model, n)
	// cell, task-major (defaults to core.DefaultWorkers()).
	Workers int
	// Backend selects the simulation engine (zero value: compiled).
	Backend testbench.Backend
	// NewClient, when non-nil, replaces llm.NewSimClient as the source of
	// per-(task, run) clients (HTTP backend or fixture replay).
	NewClient ClientFactory
	// LLMRetries overrides the pipeline transient-retry bound (zero keeps
	// the default, 4); see core.Config.LLMRetries.
	LLMRetries int
}

// Fig4Point is one (model, n) measurement: mean ± std over runs for the
// three series. Per the paper, the VFocus series excludes post-ranking
// refinement (its repeated cost is prohibitive), i.e. it is pre-ranking +
// ranking.
type Fig4Point struct {
	N        int
	Baseline metrics.Summary
	VRank    metrics.Summary
	VFocus   metrics.Summary
}

// Fig4Series is one model's curve set.
type Fig4Series struct {
	Model  string
	Points []Fig4Point
}

// Fig4Result is the full reproduction of Fig. 4.
type Fig4Result struct {
	Config Fig4Config
	Series []Fig4Series
}

// RunFig4 reproduces Fig. 4: pass@1 of Baseline, VRank and VFocus
// (pre-ranking + ranking) as the candidate count grows from 5 to 50,
// averaged over cfg.Runs repetitions with standard deviations.
func RunFig4(ctx context.Context, cfg Fig4Config) (*Fig4Result, error) {
	if len(cfg.Tasks) == 0 {
		cfg.Tasks = eval.Suite()
	}
	if len(cfg.SampleSizes) == 0 {
		cfg.SampleSizes = []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 10
	}
	if cfg.Workers <= 0 {
		cfg.Workers = core.DefaultWorkers()
	}
	if len(cfg.Models) == 0 {
		cfg.Models = []string{"deepseek-r1", "o3-mini-high", "qwq-32b"}
	}
	profiles, err := resolveProfiles(cfg.Models)
	if err != nil {
		return nil, err
	}
	oracle := NewOracle(cfg.Tasks, cfg.Seed+7)
	oracle.Backend = cfg.Backend

	// Cells run task-major, (task, run, model, n), on one pool: one
	// (task, run, model) client's pools for growing n share most of their
	// candidates.
	nm, nn := len(cfg.Models), len(cfg.SampleSizes)
	cells := make([]fig4Cell, len(cfg.Tasks)*cfg.Runs*nm*nn)
	cellAt := func(ti, run, mi, ni int) int { return ((ti*cfg.Runs+run)*nm+mi)*nn + ni }
	err = core.RunUnits(ctx, len(cells), cfg.Workers, nil, func(c int) error {
		ni, mi := c%nn, c/nn%nm
		run, ti := c/nn/nm%cfg.Runs, c/nn/nm/cfg.Runs
		cell, err := fig4Task(ctx, cfg, oracle, profiles[mi], cfg.Tasks[ti], run, cfg.SampleSizes[ni])
		if err != nil {
			return fmt.Errorf("model %s: %w", cfg.Models[mi], err)
		}
		cells[c] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Fig4Result{Config: cfg}
	total := float64(len(cfg.Tasks))
	for mi, model := range cfg.Models {
		series := Fig4Series{Model: model}
		for ni, n := range cfg.SampleSizes {
			var baseRuns, vrankRuns, vfocusRuns []float64
			for run := 0; run < cfg.Runs; run++ {
				var base, vr, vf float64
				for ti := range cfg.Tasks {
					c := cells[cellAt(ti, run, mi, ni)]
					base += c.baseline
					if c.vrank {
						vr++
					}
					if c.vfocus {
						vf++
					}
				}
				baseRuns = append(baseRuns, base/total)
				vrankRuns = append(vrankRuns, vr/total)
				vfocusRuns = append(vfocusRuns, vf/total)
			}
			series.Points = append(series.Points, Fig4Point{
				N:        n,
				Baseline: metrics.Summarize(baseRuns),
				VRank:    metrics.Summarize(vrankRuns),
				VFocus:   metrics.Summarize(vfocusRuns),
			})
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// fig4Cell is one (task, run, model, n) outcome.
type fig4Cell struct {
	baseline float64 // pass@1 estimator over the pool
	vrank    bool
	vfocus   bool
}

func fig4Task(ctx context.Context, cfg Fig4Config, oracle *Oracle, profile llm.Profile, task eval.Task, run, n int) (fig4Cell, error) {
	var cell fig4Cell
	clientSeed := cfg.Seed + int64(run)*1009
	client, err := mintClient(cfg.NewClient, profile, clientSeed, []eval.Task{task})
	if err != nil {
		return cell, err
	}
	runVariant := func(v core.Variant) (*core.Result, error) {
		pcfg := core.DefaultConfig(v, profile.Name)
		pcfg.Samples = n
		pcfg.TBSeed = cfg.Seed + int64(run)*31
		pcfg.SelectSeed = cfg.Seed + int64(run)*47
		pcfg.RetryBaseDelay = 0
		pcfg.Backend = cfg.Backend
		pcfg.LLMRetries = cfg.LLMRetries
		return core.New(client, pcfg).Run(ctx, task)
	}

	// Baseline: verify the raw pool as one batch.
	baseRes, err := runVariant(core.VariantBaseline)
	if err != nil {
		return cell, err
	}
	pool := make([]string, len(baseRes.Candidates))
	for i, c := range baseRes.Candidates {
		pool[i] = c.Code
	}
	verdicts, err := oracle.VerifyBatch(ctx, task.ID, pool)
	if err != nil {
		return cell, err
	}
	correct := 0
	for _, ok := range verdicts {
		if ok {
			correct++
		}
	}
	cell.baseline = float64(correct) / float64(n)

	check := func(v core.Variant) (bool, error) {
		r, rerr := runVariant(v)
		if rerr != nil {
			return false, rerr
		}
		if r.Final == "" {
			return false, nil
		}
		ok, rerr := oracle.VerifyBatch(ctx, task.ID, []string{r.Final})
		if rerr != nil {
			return false, rerr
		}
		return ok[0], nil
	}
	if cell.vrank, err = check(core.VariantVRank); err != nil {
		return cell, err
	}
	// Per the paper, the Fig. 4 VFocus series is pre-ranking + ranking only.
	if cell.vfocus, err = check(core.VariantPreVRank); err != nil {
		return cell, err
	}
	return cell, nil
}

// Render formats the curves as one table per model.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4: Functional correctness (Pass@1 %%) vs # samples (%d runs, mean±std)\n", r.Config.Runs)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "\n(%s)\n", s.Model)
		fmt.Fprintf(&b, "  %-5s %-16s %-16s %-16s\n", "n", "Baseline", "VRank", "VFocus")
		for _, p := range s.Points {
			fmt.Fprintf(&b, "  %-5d %6.2f ± %-6.2f %6.2f ± %-6.2f %6.2f ± %-6.2f\n",
				p.N,
				100*p.Baseline.Mean, 100*p.Baseline.Std,
				100*p.VRank.Mean, 100*p.VRank.Std,
				100*p.VFocus.Mean, 100*p.VFocus.Std)
		}
	}
	return b.String()
}
