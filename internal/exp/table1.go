package exp

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/testbench"
)

// Table1Config parameterizes the Table I reproduction.
type Table1Config struct {
	// Models to evaluate (paper: deepseek-r1, o3-mini-high, qwq-32b).
	Models []string
	// Tasks is the benchmark (defaults to the full suite).
	Tasks []eval.Task
	// Samples is n (paper: 50).
	Samples int
	// Runs averages over repeated experiments (paper: 5).
	Runs int
	// Seed drives all randomness.
	Seed int64
	// Workers sizes the one pool that runs every (task, run, model) cell,
	// task-major (defaults to core.DefaultWorkers()).
	Workers int
	// Backend selects the simulation engine (zero value: compiled; the
	// interpreter remains selectable for differential benchmarking).
	Backend testbench.Backend
	// FPMemoCap, when set, resizes the process-wide fingerprint memo (the
	// result store's memory tier) for this and every later run; zero keeps
	// the current capacity.
	FPMemoCap int
	// NewClient, when non-nil, replaces llm.NewSimClient as the source of
	// per-(task, run) clients — the hook that points an experiment at a
	// real HTTP backend (httpclient.Factory) or replayed fixtures.
	NewClient ClientFactory
	// LLMRetries overrides the pipeline transient-retry bound (zero keeps
	// the default, 4). Changing it changes the deterministic request
	// stream; see core.Config.LLMRetries.
	LLMRetries int
}

// Table1Row is one (model, dataset) row of Table I.
type Table1Row struct {
	Model   string
	Dataset string
	// Baseline pass@k from the raw sample pool.
	BasePass1, BasePass2, BasePass3 float64
	// Selection pass@1 for the three frameworks.
	VRank, PreVRank, VFocus float64
}

// Table1Result is the full reproduction of Table I.
type Table1Result struct {
	Config Table1Config
	Rows   []Table1Row
}

// taskRunOutcome records one task under one run for one model.
type taskRunOutcome struct {
	category eval.Category
	correct  int // correct candidates among the baseline pool
	vrank    bool
	preVRank bool
	vfocus   bool
}

// RunTable1 reproduces Table I: for every model it measures baseline
// pass@1/2/3 over n samples and the pass@1 of VRank, Pre+VRank and VFocus,
// averaged over cfg.Runs repetitions, on the full set plus the CMB and SEQ
// splits.
func RunTable1(ctx context.Context, cfg Table1Config) (*Table1Result, error) {
	if len(cfg.Tasks) == 0 {
		cfg.Tasks = eval.Suite()
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 50
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 5
	}
	if cfg.Workers <= 0 {
		cfg.Workers = core.DefaultWorkers()
	}
	if len(cfg.Models) == 0 {
		cfg.Models = []string{"deepseek-r1", "o3-mini-high", "qwq-32b"}
	}
	if cfg.FPMemoCap > 0 {
		testbench.SetFPMemoCap(cfg.FPMemoCap)
	}

	profiles, err := resolveProfiles(cfg.Models)
	if err != nil {
		return nil, err
	}

	res := &Table1Result{Config: cfg}
	oracle := NewOracle(cfg.Tasks, cfg.Seed+7)
	oracle.Backend = cfg.Backend

	// Cells run task-major, (task, run, model), on one pool, so a task's
	// cells share its oracle setup and its cached parses, compiles and
	// fingerprints before other tasks evict them. Tasks go in ID order,
	// which is also the order aggregation sums in.
	tasks := slices.Clone(cfg.Tasks)
	slices.SortStableFunc(tasks, func(a, b eval.Task) int { return strings.Compare(a.ID, b.ID) })
	nm := len(cfg.Models)
	outcomes := make([]taskRunOutcome, len(tasks)*cfg.Runs*nm)
	err = core.RunUnits(ctx, len(outcomes), cfg.Workers, nil, func(c int) error {
		mi := c % nm
		out, err := evalTaskRun(ctx, cfg, oracle, profiles[mi], tasks[c/nm/cfg.Runs], c/nm%cfg.Runs)
		if err != nil {
			return fmt.Errorf("model %s: %w", cfg.Models[mi], err)
		}
		outcomes[c] = out
		return nil
	})
	if err != nil {
		return nil, err
	}

	modelOutcomes := make([]taskRunOutcome, 0, len(outcomes)/nm)
	for mi, model := range cfg.Models {
		modelOutcomes = modelOutcomes[:0]
		for c := mi; c < len(outcomes); c += nm {
			modelOutcomes = append(modelOutcomes, outcomes[c])
		}
		for _, ds := range []string{"Human", "CMB", "SEQ"} {
			row, err := aggregateRows(model, ds, modelOutcomes, cfg.Samples)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// evalTaskRun evaluates one (task, run): baseline correctness counts plus
// the three frameworks' final picks.
func evalTaskRun(ctx context.Context, cfg Table1Config, oracle *Oracle, profile llm.Profile, task eval.Task, run int) (taskRunOutcome, error) {
	out := taskRunOutcome{category: task.Category}
	clientSeed := cfg.Seed + int64(run)*1009
	client, err := mintClient(cfg.NewClient, profile, clientSeed, []eval.Task{task})
	if err != nil {
		return out, err
	}

	runVariant := func(v core.Variant) (*core.Result, error) {
		pcfg := core.DefaultConfig(v, profile.Name)
		pcfg.Samples = cfg.Samples
		pcfg.TBSeed = cfg.Seed + int64(run)*31
		pcfg.SelectSeed = cfg.Seed + int64(run)*47
		pcfg.RetryBaseDelay = 0
		pcfg.Backend = cfg.Backend
		pcfg.LLMRetries = cfg.LLMRetries
		pipe := core.New(client, pcfg)
		return pipe.Run(ctx, task)
	}

	// Baseline: verify the raw pool (attempt-0 candidates) as one batch —
	// verdicts identical to per-candidate Verify calls.
	baseRes, err := runVariant(core.VariantBaseline)
	if err != nil {
		return out, err
	}
	pool := make([]string, len(baseRes.Candidates))
	for i, c := range baseRes.Candidates {
		pool[i] = c.Code
	}
	verdicts, err := oracle.VerifyBatch(ctx, task.ID, pool)
	if err != nil {
		return out, err
	}
	for _, ok := range verdicts {
		if ok {
			out.correct++
		}
	}

	check := func(v core.Variant) (bool, error) {
		r, err := runVariant(v)
		if err != nil {
			return false, err
		}
		if r.Final == "" {
			return false, nil
		}
		ok, err := oracle.VerifyBatch(ctx, task.ID, []string{r.Final})
		if err != nil {
			return false, err
		}
		return ok[0], nil
	}
	if out.vrank, err = check(core.VariantVRank); err != nil {
		return out, err
	}
	if out.preVRank, err = check(core.VariantPreVRank); err != nil {
		return out, err
	}
	if out.vfocus, err = check(core.VariantVFocus); err != nil {
		return out, err
	}
	return out, nil
}

// aggregateRows reduces per-task-run outcomes into one table row.
func aggregateRows(model, dataset string, outcomes []taskRunOutcome, n int) (Table1Row, error) {
	row := Table1Row{Model: model, Dataset: dataset}
	var correct []int
	var vr, pv, vf, total float64
	for _, o := range outcomes {
		if dataset == "CMB" && o.category != eval.Combinational {
			continue
		}
		if dataset == "SEQ" && o.category != eval.Sequential {
			continue
		}
		correct = append(correct, o.correct)
		total++
		if o.vrank {
			vr++
		}
		if o.preVRank {
			pv++
		}
		if o.vfocus {
			vf++
		}
	}
	if total == 0 {
		return row, fmt.Errorf("%w: dataset %s empty", ErrExperiment, dataset)
	}
	var err error
	if row.BasePass1, err = metrics.MeanPassAtK(n, correct, 1); err != nil {
		return row, err
	}
	if row.BasePass2, err = metrics.MeanPassAtK(n, correct, 2); err != nil {
		return row, err
	}
	if row.BasePass3, err = metrics.MeanPassAtK(n, correct, 3); err != nil {
		return row, err
	}
	row.VRank = vr / total
	row.PreVRank = pv / total
	row.VFocus = vf / total
	return row, nil
}

// Render formats the result like the paper's Table I.
func (r *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE I: Comparison of the proposed framework with direct generation baseline (n=%d, %d runs)\n",
		r.Config.Samples, r.Config.Runs)
	fmt.Fprintf(&b, "%-14s %-8s | %8s %8s %8s | %18s %18s %18s\n",
		"Model", "Dataset", "Pass@1", "Pass@2", "Pass@3", "VRank", "Pre+VRank", "VFocus")
	b.WriteString(strings.Repeat("-", 120) + "\n")
	for _, row := range r.Rows {
		delta := func(v float64) string {
			return fmt.Sprintf("%5.1f%% (%+5.1f%%)", 100*v, 100*(v-row.BasePass1))
		}
		fmt.Fprintf(&b, "%-14s %-8s | %7.1f%% %7.1f%% %7.1f%% | %18s %18s %18s\n",
			row.Model, row.Dataset,
			100*row.BasePass1, 100*row.BasePass2, 100*row.BasePass3,
			delta(row.VRank), delta(row.PreVRank), delta(row.VFocus))
	}
	return b.String()
}
