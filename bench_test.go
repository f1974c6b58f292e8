// Benchmark harness: benches for the Fig. 3 and Fig. 4 artifacts, the
// ablation benches DESIGN.md calls out and micro-benchmarks of the
// substrates. Table I is measured end to end by the bench/ harness (its
// table1 workloads). The artifact benches run reduced-size configurations so
// a plain `go test -bench=.` stays tractable; the cmd/vfocus-experiments
// binary regenerates the full-size artifacts.
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/llm"
	"repro/internal/sim"
	"repro/internal/testbench"
	"repro/internal/verilog/parser"
)

// benchTasks returns every stride-th task, spanning all families.
func benchTasks(stride int) []eval.Task {
	all := eval.Suite()
	var out []eval.Task
	for i := 0; i < len(all); i += stride {
		out = append(out, all[i])
	}
	return out
}

// --- Paper artifacts -----------------------------------------------------------

// benchFig3 regenerates a reduced Fig. 3 panel set per iteration.
func benchFig3(b *testing.B, backend testbench.Backend) {
	b.Helper()
	cfg := exp.Fig3Config{
		Models:  []string{"deepseek-r1", "o3-mini-medium"},
		Tasks:   benchTasks(6),
		Samples: 20,
		Bins:    10,
		Seed:    1,
		Backend: backend,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunFig3(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Compiled is the paper-artifact bench on the default
// (compiled) backend.
func BenchmarkFig3Compiled(b *testing.B) { benchFig3(b, testbench.BackendCompiled) }

// BenchmarkFig3Interpreter runs the same reduced Fig. 3 on the interpreter.
func BenchmarkFig3Interpreter(b *testing.B) { benchFig3(b, testbench.BackendInterpreter) }

// BenchmarkFig4 regenerates a reduced Fig. 4 sweep per iteration.
func BenchmarkFig4(b *testing.B) {
	cfg := exp.Fig4Config{
		Models:      []string{"deepseek-r1"},
		Tasks:       benchTasks(12),
		SampleSizes: []int{5, 20},
		Runs:        1,
		Seed:        1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunFig4(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md) --------------------------

// ablationPassRate runs the pipeline over the task set and reports pass@1 as
// a benchmark metric, so `go test -bench=Ablation` prints the design-space
// numbers next to the timings.
func ablationPassRate(b *testing.B, tasks []eval.Task, mutate func(*core.Config)) {
	b.Helper()
	profile, err := llm.ProfileByName("qwq-32b") // weakest model: largest effects
	if err != nil {
		b.Fatal(err)
	}
	oracle := exp.NewOracle(tasks, 8)
	b.ReportAllocs()
	var lastRate float64
	for i := 0; i < b.N; i++ {
		client, cerr := llm.NewSimClient(profile, 17, tasks)
		if cerr != nil {
			b.Fatal(cerr)
		}
		cfg := core.DefaultConfig(core.VariantVFocus, profile.Name)
		cfg.Samples = 20
		cfg.RetryBaseDelay = 0
		mutate(&cfg)
		pipe := core.New(client, cfg)
		pass := 0
		for _, task := range tasks {
			res, rerr := pipe.Run(context.Background(), task)
			if rerr != nil {
				b.Fatal(rerr)
			}
			ok, verr := oracle.Verify(task.ID, res.Final)
			if verr != nil {
				b.Fatal(verr)
			}
			if ok {
				pass++
			}
		}
		lastRate = float64(pass) / float64(len(tasks))
	}
	b.ReportMetric(100*lastRate, "pass@1_%")
}

// BenchmarkAblationDensity sweeps the density-filter bounds, including
// disabling it (Lmin=0, Lmax=1).
func BenchmarkAblationDensity(b *testing.B) {
	tasks := benchTasks(8)
	for _, tc := range []struct {
		name       string
		lmin, lmax float64
	}{
		{"off", 0, 1},
		{"paper_10_75", 0.10, 0.75},
		{"tight_25_60", 0.25, 0.60},
		{"maxonly_0_75", 0, 0.75},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ablationPassRate(b, tasks, func(cfg *core.Config) {
				cfg.LminPct = tc.lmin
				cfg.LmaxPct = tc.lmax
			})
		})
	}
}

// BenchmarkAblationEarlyExit sweeps the dominant-cluster early-exit
// threshold.
func BenchmarkAblationEarlyExit(b *testing.B) {
	tasks := benchTasks(8)
	for _, frac := range []float64{0.5, 0.9, 1.01} {
		b.Run(fmt.Sprintf("frac_%v", frac), func(b *testing.B) {
			ablationPassRate(b, tasks, func(cfg *core.Config) {
				cfg.EarlyExitFrac = frac
			})
		})
	}
}

// BenchmarkAblationTBImperfection sweeps ranking-testbench quality: denser
// testbenches cluster better but model a stronger generator than the paper
// assumes.
func BenchmarkAblationTBImperfection(b *testing.B) {
	tasks := benchTasks(8)
	for _, imp := range []float64{0, 0.3, 0.6} {
		b.Run(fmt.Sprintf("drop_%v", imp), func(b *testing.B) {
			ablationPassRate(b, tasks, func(cfg *core.Config) {
				cfg.TBImperfection = imp
			})
		})
	}
}

// BenchmarkAblationRetry sweeps the syntax-retry limit (1 = no retry).
func BenchmarkAblationRetry(b *testing.B) {
	tasks := benchTasks(8)
	for _, retries := range []int{1, 5, 10} {
		b.Run(fmt.Sprintf("max_%d", retries), func(b *testing.B) {
			ablationPassRate(b, tasks, func(cfg *core.Config) {
				cfg.MaxRetries = retries
			})
		})
	}
}

// BenchmarkAblationTopClusters sweeps how many top clusters refinement
// touches.
func BenchmarkAblationTopClusters(b *testing.B) {
	tasks := benchTasks(8)
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("top_%d", k), func(b *testing.B) {
			ablationPassRate(b, tasks, func(cfg *core.Config) {
				cfg.TopClusters = k
			})
		})
	}
}

// --- Substrate micro-benchmarks ----------------------------------------------------

// BenchmarkParser measures parsing of a representative sequential golden.
func BenchmarkParser(b *testing.B) {
	src := benchTasks(1)[120].Golden
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSimulator measures a dense verification trace run on one backend.
func benchSimulator(b *testing.B, taskIdx int, backend testbench.Backend) {
	b.Helper()
	task := benchTasks(1)[taskIdx]
	src, err := parser.Parse(task.Golden)
	if err != nil {
		b.Fatal(err)
	}
	st := testbench.NewGenerator(3).Verification(task.Ifc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := testbench.RunBackend(src, eval.TopModule, st, backend)
		if tr.Err != nil {
			b.Fatal(tr.Err)
		}
	}
}

// BenchmarkSimulatorComb measures an exhaustive combinational trace run on
// the interpreter (the pre-compilation baseline).
func BenchmarkSimulatorComb(b *testing.B) { benchSimulator(b, 44, testbench.BackendInterpreter) }

// BenchmarkSimulatorCombCompiled is the same trace run on the compiled
// backend (steady-state: the design is already in the elaboration cache).
func BenchmarkSimulatorCombCompiled(b *testing.B) { benchSimulator(b, 44, testbench.BackendCompiled) }

// BenchmarkSimulatorSeq measures a clocked multi-case trace run on the
// interpreter, which re-elaborates per test case.
func BenchmarkSimulatorSeq(b *testing.B) { benchSimulator(b, 120, testbench.BackendInterpreter) }

// BenchmarkSimulatorSeqCompiled is the same clocked run on the compiled
// backend, which re-instantiates per test case with a snapshot copy.
func BenchmarkSimulatorSeqCompiled(b *testing.B) { benchSimulator(b, 120, testbench.BackendCompiled) }

// BenchmarkCompile measures a cold Compile (elaborate + lower) of a
// representative sequential golden.
func BenchmarkCompile(b *testing.B) {
	task := benchTasks(1)[120]
	src, err := parser.Parse(task.Golden)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Compile(src, eval.TopModule); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileCacheHit measures the steady-state cost of CompileCached
// on a warm cache (canonical hash + LRU lookup) plus engine instantiation —
// the per-candidate overhead duplicate candidates pay.
func BenchmarkCompileCacheHit(b *testing.B) {
	task := benchTasks(1)[120]
	src, err := parser.Parse(task.Golden)
	if err != nil {
		b.Fatal(err)
	}
	cache := sim.NewCompileCache(8)
	if _, err := cache.Get(src, eval.TopModule); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := cache.Get(src, eval.TopModule)
		if err != nil {
			b.Fatal(err)
		}
		d.NewEngine()
	}
}

// BenchmarkEngineTick measures raw steady-state clock-cycle throughput of
// the register-file engine on a representative sequential golden. With the
// destination-passing kernels this reports 0 allocs/op — the regression
// tests in internal/sim/alloc_test.go enforce it.
func BenchmarkEngineTick(b *testing.B) {
	task := benchTasks(1)[120]
	src, err := parser.Parse(task.Golden)
	if err != nil {
		b.Fatal(err)
	}
	d, err := sim.Compile(src, eval.TopModule)
	if err != nil {
		b.Fatal(err)
	}
	en := d.NewEngine()
	if task.Ifc.Reset != "" {
		rv := uint64(1)
		if task.Ifc.ResetActiveLow {
			rv = 0
		}
		if err := en.SetInputUint(task.Ifc.Reset, rv); err != nil {
			b.Fatal(err)
		}
		if err := en.Tick(task.Ifc.Clock); err != nil {
			b.Fatal(err)
		}
		if err := en.SetInputUint(task.Ifc.Reset, 1-rv); err != nil {
			b.Fatal(err)
		}
	}
	ins := task.Ifc.DataInputs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range ins {
			if err := en.SetInputUint(in.Name, uint64(i)*0x9E3779B9); err != nil {
				b.Fatal(err)
			}
		}
		if err := en.Tick(task.Ifc.Clock); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineVFocus measures one full VFocus run on one task.
func BenchmarkPipelineVFocus(b *testing.B) {
	task := benchTasks(1)[100]
	profile, err := llm.ProfileByName("deepseek-r1")
	if err != nil {
		b.Fatal(err)
	}
	client, err := llm.NewSimClient(profile, 5, []eval.Task{task})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(core.VariantVFocus, profile.Name)
	cfg.Samples = 20
	cfg.RetryBaseDelay = 0
	pipe := core.New(client, cfg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.Run(context.Background(), task); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineVFocusWorkers is the same VFocus run with the ranking
// stage's simulate-and-fingerprint loop spread over every core (results are
// bit-identical to the sequential run; see core.TestRankWorkersDeterministic).
func BenchmarkPipelineVFocusWorkers(b *testing.B) {
	task := benchTasks(1)[100]
	profile, err := llm.ProfileByName("deepseek-r1")
	if err != nil {
		b.Fatal(err)
	}
	client, err := llm.NewSimClient(profile, 5, []eval.Task{task})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(core.VariantVFocus, profile.Name)
	cfg.Samples = 20
	cfg.RetryBaseDelay = 0
	cfg.Workers = core.DefaultWorkers()
	pipe := core.New(client, cfg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.Run(context.Background(), task); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate measures one simulated-LLM completion (mutation +
// printing dominated).
func BenchmarkGenerate(b *testing.B) {
	task := benchTasks(1)[90]
	profile, err := llm.ProfileByName("qwq-32b")
	if err != nil {
		b.Fatal(err)
	}
	client, err := llm.NewSimClient(profile, 5, []eval.Task{task})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, gerr := client.Generate(context.Background(), llm.GenerateRequest{
			TaskID:      task.ID,
			SampleIndex: i,
		})
		if gerr != nil && gerr != context.Canceled {
			// Transient errors are part of the simulated behavior.
			continue
		}
	}
}

// BenchmarkSuiteGeneration measures building the full 156-task benchmark.
func BenchmarkSuiteGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := len(eval.Suite()); got != eval.SuiteSize {
			b.Fatalf("suite size %d", got)
		}
	}
}
