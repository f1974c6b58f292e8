package exp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/mutate"
	"repro/internal/testbench"
	"repro/internal/verilog/parser"
	"repro/internal/verilog/printer"
	"repro/internal/xrng"
)

func TestOracleGoldenAlwaysPasses(t *testing.T) {
	tasks := eval.Suite()
	oracle := NewOracle(tasks, 3)
	for i := 0; i < len(tasks); i += 10 {
		ok, err := oracle.Verify(tasks[i].ID, tasks[i].Golden)
		if err != nil {
			t.Fatalf("%s: %v", tasks[i].ID, err)
		}
		if !ok {
			t.Errorf("%s: golden fails its own verification", tasks[i].ID)
		}
	}
}

func TestOracleRejectsGarbageAndUnknownTask(t *testing.T) {
	tasks := eval.Suite()[:3]
	oracle := NewOracle(tasks, 3)
	ok, err := oracle.Verify(tasks[0].ID, "not verilog at all")
	if err != nil || ok {
		t.Errorf("garbage verdict: %v %v", ok, err)
	}
	ok, err = oracle.Verify(tasks[0].ID, "module wrong_name (input a, output y);\nassign y = a;\nendmodule\n")
	if err != nil || ok {
		t.Errorf("wrong module name verdict: %v %v", ok, err)
	}
	if _, err := oracle.Verify("ghost_task", "x"); err == nil {
		t.Error("unknown task should error")
	}
}

func TestOracleDetectsMutants(t *testing.T) {
	tasks := eval.Suite()
	oracle := NewOracle(tasks, 3)
	rng := xrng.New(31)
	detected, total := 0, 0
	for i := 0; i < len(tasks); i += 12 {
		task := tasks[i]
		src, err := parser.Parse(task.Golden)
		if err != nil {
			t.Fatal(err)
		}
		top := src.FindModule(eval.TopModule)
		for trial := 0; trial < 3; trial++ {
			mutant, _ := mutate.Semantic(top, rng, mutate.Config{Count: 2})
			if mutant == nil {
				continue
			}
			ok, verr := oracle.Verify(task.ID, printer.PrintModule(mutant))
			if verr != nil {
				t.Fatal(verr)
			}
			total++
			if !ok {
				detected++
			}
		}
	}
	if total == 0 {
		t.Fatal("no mutants tested")
	}
	if frac := float64(detected) / float64(total); frac < 0.7 {
		t.Errorf("oracle detected only %.0f%% of double mutants", 100*frac)
	}
}

func TestOracleCacheConsistencyUnderConcurrency(t *testing.T) {
	tasks := eval.Suite()[:4]
	oracle := NewOracle(tasks, 3)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, task := range tasks {
				ok, err := oracle.Verify(task.ID, task.Golden)
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					errs <- &Error{msg: "golden failed under concurrency: " + task.ID}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestOracleConcurrentVerifyBatch: barrier-started VerifyBatch calls over
// shared tasks see one preparation per task and return exactly the
// referee's verdicts.
func TestOracleConcurrentVerifyBatch(t *testing.T) {
	suite := eval.Suite()
	tasks := []eval.Task{suite[20], suite[58], suite[86], suite[120]}
	rng := xrng.New(7)
	pools := make(map[string][]string, len(tasks))
	for _, task := range tasks {
		golden, err := parser.Parse(task.Golden)
		if err != nil {
			t.Fatal(err)
		}
		top := golden.FindModule(eval.TopModule)
		pool := []string{task.Golden, printer.PrintModule(mutate.Cosmetic(top, rng))}
		for trial := 0; trial < 3; trial++ {
			if mut, _ := mutate.Semantic(top, rng, mutate.Config{Count: 1}); mut != nil {
				pool = append(pool, printer.PrintModule(mut))
			}
		}
		pools[task.ID] = pool
	}
	want := make(map[string][]bool, len(tasks))
	for _, task := range tasks {
		want[task.ID] = refereeVerdicts(t, task, 5, pools[task.ID], testbench.BackendCompiled)
	}

	conc := NewOracle(tasks, 5)
	const callers = 16
	gate := make(chan struct{})
	prepared := make([][]*oracleTask, callers)
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-gate
			for k := range tasks {
				task := tasks[(c+k)%len(tasks)]
				got, err := conc.VerifyBatch(context.Background(), task.ID, pools[task.ID])
				if err != nil {
					errs <- err
					return
				}
				for i := range got {
					if got[i] != want[task.ID][i] {
						errs <- fmt.Errorf("%s candidate %d: concurrent verdict %v, referee %v",
							task.ID, i, got[i], want[task.ID][i])
						return
					}
				}
			}
			for _, task := range tasks {
				ot, err := conc.prepare(task.ID)
				if err != nil {
					errs <- err
					return
				}
				prepared[c] = append(prepared[c], ot)
			}
		}(c)
	}
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	for c := range prepared {
		for k, ot := range prepared[c] {
			if ot != prepared[0][k] {
				t.Fatalf("%s: caller %d saw a second preparation", tasks[k].ID, c)
			}
		}
	}
}

// Error is a trivial test error type.
type Error struct{ msg string }

func (e *Error) Error() string { return e.msg }

func TestTable1Render(t *testing.T) {
	res := &Table1Result{
		Config: Table1Config{Samples: 50, Runs: 5},
		Rows: []Table1Row{{
			Model: "deepseek-r1", Dataset: "Human",
			BasePass1: 0.66, BasePass2: 0.709, BasePass3: 0.729,
			VRank: 0.792, PreVRank: 0.847, VFocus: 0.87,
		}},
	}
	out := res.Render()
	for _, want := range []string{"deepseek-r1", "Human", "66.0%", "79.2%", "87.0%", "VRank", "Pre+VRank", "VFocus"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestVerifyBatchCancelled: a batch with candidates to verify under a
// cancelled context fails with an error that is both ErrExperiment and
// context.Canceled, and memoizes no verdict; the same batch then verifies
// under a live context. A batch whose verdicts are all memoized needs no
// work and still answers.
func TestVerifyBatchCancelled(t *testing.T) {
	task := eval.Suite()[3]
	oracle := NewOracle([]eval.Task{task}, 3)
	pool := []string{task.Golden, "not verilog at all"}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if v, err := oracle.VerifyBatch(ctx, task.ID, pool); !errors.Is(err, context.Canceled) || !errors.Is(err, ErrExperiment) || v != nil {
		t.Fatalf("cancelled VerifyBatch = %v, %v; want nil and an ErrExperiment wrapping context.Canceled", v, err)
	}
	oracle.mu.Lock()
	memoized := len(oracle.verdicts)
	oracle.mu.Unlock()
	if memoized != 0 {
		t.Fatalf("a cancelled batch memoized %d verdicts, want 0", memoized)
	}
	v, err := oracle.VerifyBatch(context.Background(), task.ID, pool)
	if err != nil || !v[0] || v[1] {
		t.Fatalf("VerifyBatch after the cancelled call = %v, %v; want [true false]", v, err)
	}
	if again, err := oracle.VerifyBatch(ctx, task.ID, pool); err != nil || again[0] != v[0] || again[1] != v[1] {
		t.Fatalf("memoized batch under a cancelled context = %v, %v; want %v", again, err, v)
	}
}
