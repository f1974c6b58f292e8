// Command vfocus-experiments regenerates every table and figure of the
// paper's evaluation section:
//
//	vfocus-experiments -exp table1            # Table I
//	vfocus-experiments -exp fig3              # Fig. 3 (a-d)
//	vfocus-experiments -exp fig4              # Fig. 4
//	vfocus-experiments -exp all -quick        # everything, reduced sizes
//
// Full-size runs use the paper's parameters (n=50; 5 runs for Table I, 10
// for Fig. 4) and can take tens of minutes on a laptop; -quick cuts runs and
// sample counts for a fast smoke pass.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/cmd/internal/llmflags"
	"repro/cmd/internal/storeflags"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/testbench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "vfocus-experiments: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vfocus-experiments", flag.ContinueOnError)
	var (
		expName = fs.String("exp", "all", "experiment: table1|fig3|fig4|all")
		quick   = fs.Bool("quick", false, "reduced sizes for a fast smoke run")
		seed    = fs.Int64("seed", 1, "random seed")
		models  = fs.String("models", "", "comma-separated model list (default: paper's)")
		runs    = fs.Int("runs", 0, "override run count (0 = paper defaults)")
		samples = fs.Int("samples", 0, "override sample count n (0 = paper defaults)")
		backend = fs.String("backend", "compiled", "simulation backend: compiled|interpreter")
		workers = fs.Int("workers", core.DefaultWorkers(), "size of the one worker pool that runs every experiment cell, task-major")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	storef := storeflags.Register(fs)
	llmf := llmflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	_, storeClose, err := storef.Install(storeflags.Stderr)
	if err != nil {
		return err
	}
	defer storeClose()

	newClient, llmStats, llmClose, err := llmf.Factory()
	if err != nil {
		return err
	}
	defer llmClose()
	if llmStats != nil {
		fmt.Fprintf(os.Stderr, "llm backend: %s\n", llmf.Desc())
		defer func() {
			fmt.Fprintf(os.Stderr, "llm stats: %+v\n", llmStats())
		}()
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "vfocus-experiments: memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	var be testbench.Backend
	switch *backend {
	case "compiled":
		be = testbench.BackendCompiled
	case "interpreter":
		be = testbench.BackendInterpreter
	default:
		return fmt.Errorf("unknown backend %q (want compiled|interpreter)", *backend)
	}

	var modelList []string
	if *models != "" {
		modelList = strings.Split(*models, ",")
	}
	tasks := eval.Suite()
	ctx := context.Background()

	wantTable1 := *expName == "table1" || *expName == "all"
	wantFig3 := *expName == "fig3" || *expName == "all"
	wantFig4 := *expName == "fig4" || *expName == "all"
	if !wantTable1 && !wantFig3 && !wantFig4 {
		return fmt.Errorf("unknown experiment %q (want table1|fig3|fig4|all)", *expName)
	}

	if wantTable1 {
		cfg := exp.Table1Config{
			Models:     modelList,
			Tasks:      tasks,
			Samples:    pick(*samples, 50, 20, *quick),
			Runs:       pick(*runs, 5, 1, *quick),
			Seed:       *seed,
			Workers:    *workers,
			Backend:    be,
			NewClient:  newClient,
			LLMRetries: llmf.Retries,
		}
		start := time.Now()
		res, err := exp.RunTable1(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		fmt.Printf("(table1 completed in %s)\n\n", time.Since(start).Round(time.Second))
	}

	if wantFig3 {
		cfg := exp.Fig3Config{
			Models:    modelList,
			Tasks:     tasks,
			Samples:   pick(*samples, 50, 20, *quick),
			Bins:      10,
			Seed:      *seed,
			Workers:   *workers,
			Backend:   be,
			NewClient: newClient,
		}
		start := time.Now()
		res, err := exp.RunFig3(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		fmt.Printf("(fig3 completed in %s)\n\n", time.Since(start).Round(time.Second))
	}

	if wantFig4 {
		sizes := []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}
		if *quick {
			sizes = []int{5, 15, 30, 50}
		}
		cfg := exp.Fig4Config{
			Models:      modelList,
			Tasks:       tasks,
			SampleSizes: sizes,
			Runs:        pick(*runs, 10, 2, *quick),
			Seed:        *seed,
			Workers:     *workers,
			Backend:     be,
			NewClient:   newClient,
			LLMRetries:  llmf.Retries,
		}
		start := time.Now()
		res, err := exp.RunFig4(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		fmt.Printf("(fig4 completed in %s)\n", time.Since(start).Round(time.Second))
	}
	return nil
}

// pick resolves an override/default/quick triple.
func pick(override, full, quick int, isQuick bool) int {
	if override > 0 {
		return override
	}
	if isQuick {
		return quick
	}
	return full
}
