// Command vfocus runs the VFocus pipeline (or one of its ablated variants:
// baseline, vrank, pre+vrank) on benchmark tasks and reports the selected
// candidate and its verification verdict.
//
// Usage:
//
//	vfocus -task cmb_kmap_00 -model deepseek-r1 -variant vfocus -samples 50
//	vfocus -task all -model qwq-32b -variant vrank
//	vfocus -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/cmd/internal/llmflags"
	"repro/cmd/internal/storeflags"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/llm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "vfocus: %v\n", err)
		os.Exit(1)
	}
}

func parseVariant(s string) (core.Variant, error) {
	switch strings.ToLower(s) {
	case "baseline":
		return core.VariantBaseline, nil
	case "vrank":
		return core.VariantVRank, nil
	case "prevrank", "pre+vrank", "pre":
		return core.VariantPreVRank, nil
	case "vfocus":
		return core.VariantVFocus, nil
	default:
		return 0, fmt.Errorf("unknown variant %q (want baseline|vrank|prevrank|vfocus)", s)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vfocus", flag.ContinueOnError)
	var (
		taskID     = fs.String("task", "", "task ID to run, or 'all' for the full suite")
		model      = fs.String("model", "deepseek-r1", "model profile: deepseek-r1|o3-mini-high|qwq-32b|o3-mini-medium")
		variantStr = fs.String("variant", "vfocus", "pipeline variant: baseline|vrank|prevrank|vfocus")
		samples    = fs.Int("samples", 50, "number of candidates (n)")
		seed       = fs.Int64("seed", 1, "random seed")
		list       = fs.Bool("list", false, "list all benchmark tasks and exit")
		showCode   = fs.Bool("code", false, "print the selected candidate's code")
		verbose    = fs.Bool("v", false, "print cluster details")
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

	tasks := eval.Suite()
	if *list {
		for _, t := range tasks {
			simple := ""
			if t.SimpleDesc {
				simple = " [simple-desc]"
			}
			fmt.Printf("%-28s %s %-10s diff=%.2f%s\n", t.ID, t.Category, t.Family, t.Difficulty, simple)
		}
		return nil
	}
	if *taskID == "" {
		return fmt.Errorf("missing -task (use -list to see available tasks)")
	}
	variant, err := parseVariant(*variantStr)
	if err != nil {
		return err
	}
	profile, err := llm.ProfileByName(*model)
	if err != nil {
		return err
	}

	var selected []eval.Task
	if *taskID == "all" {
		selected = tasks
	} else {
		for _, t := range tasks {
			if t.ID == *taskID {
				selected = []eval.Task{t}
				break
			}
		}
		if len(selected) == 0 {
			return fmt.Errorf("unknown task %q (use -list)", *taskID)
		}
	}

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
	client, err := newClient(profile.Name, *seed, selected)
	if err != nil {
		return err
	}
	oracle := exp.NewOracle(selected, *seed+7)

	cfg := core.DefaultConfig(variant, profile.Name)
	cfg.Samples = *samples
	cfg.TBSeed = *seed
	cfg.SelectSeed = *seed
	cfg.RetryBaseDelay = 0
	cfg.LLMRetries = llmf.Retries
	pipe := core.New(client, cfg)

	ctx := context.Background()
	passed := 0
	for _, task := range selected {
		res, rerr := pipe.Run(ctx, task)
		if rerr != nil {
			return fmt.Errorf("task %s: %w", task.ID, rerr)
		}
		ok, verr := oracle.Verify(task.ID, res.Final)
		if verr != nil {
			return verr
		}
		if ok {
			passed++
		}
		status := "FAIL"
		if ok {
			status = "PASS"
		}
		fmt.Printf("%-28s %s  variant=%s clusters=%d earlyExit=%v refinedUsed=%v gen=%d refine=%d judge=%d\n",
			task.ID, status, variant, len(res.Clusters), res.EarlyExit, res.RefinedUsed,
			res.Stats.GenerateCalls, res.Stats.RefineCalls, res.Stats.JudgeCalls)
		if *verbose {
			for ci, cl := range res.Clusters {
				if ci >= 5 {
					fmt.Printf("    ... %d more clusters\n", len(res.Clusters)-ci)
					break
				}
				fmt.Printf("    cluster %d: size=%d refined=%d\n", ci, cl.Score, len(cl.RefinedIdx))
			}
		}
		if *showCode {
			fmt.Println("---- selected candidate ----")
			fmt.Println(res.Final)
		}
	}
	if len(selected) > 1 {
		fmt.Printf("\npass@1: %.1f%% (%d/%d)\n", 100*float64(passed)/float64(len(selected)), passed, len(selected))
	}
	return nil
}
