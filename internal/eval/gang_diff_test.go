package eval

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/mutate"
	"repro/internal/testbench"
	"repro/internal/verilog/ast"
	"repro/internal/verilog/parser"
	"repro/internal/verilog/printer"
	"repro/internal/xrng"
)

// freshStimulus clones a stimulus into a new value: the fresh pointer misses
// the process-wide (design, stimulus) fingerprint memo, so every comparison
// below is an honest simulation rather than a memo read.
func freshStimulus(st *testbench.Stimulus) *testbench.Stimulus {
	cases := make([]testbench.Case, st.NumCases())
	for ci := range cases {
		cases[ci] = st.Case(ci)
	}
	return &testbench.Stimulus{Ifc: st.Ifc, Cases: cases}
}

// fpEqual requires two fingerprint traces to agree exactly, including error
// bytes.
func fpEqual(t *testing.T, label string, got, want *testbench.FPTrace) {
	t.Helper()
	if (got.Err == nil) != (want.Err == nil) ||
		(got.Err != nil && got.Err.Error() != want.Err.Error()) {
		t.Fatalf("%s: error divergence: got %v, want %v", label, got.Err, want.Err)
	}
	if len(got.CaseFPs) != len(want.CaseFPs) {
		t.Fatalf("%s: case counts differ: %d vs %d", label, len(got.CaseFPs), len(want.CaseFPs))
	}
	for i := range got.CaseFPs {
		if got.CaseFPs[i] != want.CaseFPs[i] {
			t.Fatalf("%s: case %d fingerprint differs", label, i)
		}
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: whole-run fingerprint differs", label)
	}
}

// TestSuiteGangFingerprintEquivalence runs every golden design in the
// 156-task benchmark, plus random semantic mutants of each, through
// RunFingerprints at several batch partitionings and requires bit-identical
// fingerprints to solo printed-trace runs of the same candidates. This is the
// suite-wide acceptance gate for the fingerprint path: it covers every
// construct family the benchmark exercises and healthy and buggy candidates
// in one batch.
func TestSuiteGangFingerprintEquivalence(t *testing.T) {
	rng := xrng.New(91)
	for _, task := range Suite() {
		golden, err := parser.Parse(task.Golden)
		if err != nil {
			t.Fatalf("%s: golden parse: %v", task.ID, err)
		}
		srcs := []*ast.Source{golden}
		if mod := golden.FindModule(TopModule); mod != nil {
			for trial := 0; trial < 3; trial++ {
				mut, _ := mutate.Semantic(mod, rng, mutate.Config{Count: 1})
				if mut == nil {
					continue
				}
				msrc, perr := parser.Parse(printer.PrintModule(mut))
				if perr != nil {
					continue // a mutant may print to something unparseable; skip
				}
				srcs = append(srcs, msrc)
			}
		}
		st := testbench.NewGenerator(9 + int64(task.Index)).Ranking(task.Ifc)

		// Solo baselines: printed-trace runs, which share no memo or gang.
		solo := make([]*testbench.FPTrace, len(srcs))
		soloSt := freshStimulus(st)
		for i, src := range srcs {
			solo[i] = testbench.RunBackend(src, TopModule, soloSt, testbench.BackendCompiled).FP()
		}

		for _, chunk := range []int{1, 2, len(srcs)} {
			got := runGangChunks(t, srcs, freshStimulus(st), chunk)
			for i := range srcs {
				fpEqual(t, fmt.Sprintf("%s chunk=%d cand=%d", task.ID, chunk, i), got[i], solo[i])
			}
		}
	}
}

// runGangChunks runs srcs through RunFingerprints in batches of chunk
// candidates.
func runGangChunks(t *testing.T, srcs []*ast.Source, st *testbench.Stimulus, chunk int) []*testbench.FPTrace {
	t.Helper()
	got := make([]*testbench.FPTrace, 0, len(srcs))
	for lo := 0; lo < len(srcs); lo += chunk {
		hi := min(lo+chunk, len(srcs))
		out, err := testbench.RunFingerprints(context.Background(), srcs[lo:hi], TopModule, st, testbench.BackendCompiled)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, out...)
	}
	return got
}

// TestSuiteGangWideLanes exercises the wide batches (8 and 64 candidates)
// that the per-task test above cannot reach with a handful of mutants: for a
// spread of benchmark tasks it builds a 64-candidate pool of distinct mutants
// of the golden and requires solo fingerprints when the pool is partitioned
// into batches of 8 and one batch of 64.
func TestSuiteGangWideLanes(t *testing.T) {
	rng := xrng.New(177)
	tasks := Suite()
	for ti := 0; ti < len(tasks); ti += 39 {
		task := tasks[ti]
		golden, err := parser.Parse(task.Golden)
		if err != nil {
			t.Fatalf("%s: golden parse: %v", task.ID, err)
		}
		mod := golden.FindModule(TopModule)
		if mod == nil {
			continue
		}
		srcs := []*ast.Source{golden}
		for trial := 0; len(srcs) < 64 && trial < 512; trial++ {
			mut, _ := mutate.Semantic(mod, rng, mutate.Config{Count: 1 + trial%3})
			if mut == nil {
				continue
			}
			msrc, perr := parser.Parse(printer.PrintModule(mut))
			if perr != nil {
				continue
			}
			srcs = append(srcs, msrc)
		}
		st := testbench.NewGenerator(41 + int64(task.Index)).Ranking(task.Ifc)

		solo := make([]*testbench.FPTrace, len(srcs))
		soloSt := freshStimulus(st)
		for i, src := range srcs {
			solo[i] = testbench.RunBackend(src, TopModule, soloSt, testbench.BackendCompiled).FP()
		}

		for _, chunk := range []int{8, 64} {
			got := runGangChunks(t, srcs, freshStimulus(st), chunk)
			for i := range srcs {
				fpEqual(t, fmt.Sprintf("%s chunk=%d cand=%d", task.ID, chunk, i), got[i], solo[i])
			}
		}
	}
}
