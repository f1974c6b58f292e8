package eval

import (
	"fmt"
	"testing"

	"repro/internal/mutate"
	"repro/internal/sim"
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
// RunFingerprintGang at several gang partitionings and requires bit-identical
// fingerprints to solo runs of the same candidates — with and without the
// compiled golden as delta-compilation base. This is the suite-wide
// acceptance gate for gang ranking and delta compilation together: it covers
// every construct family the benchmark exercises, healthy and buggy lanes in
// the same gang, and both the lockstep drive loop and its solo fallbacks.
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

		// Solo baselines on a fresh stimulus value (memo-miss).
		solo := make([]*testbench.FPTrace, len(srcs))
		soloSt := freshStimulus(st)
		for i, src := range srcs {
			solo[i] = testbench.RunFingerprint(src, TopModule, soloSt, testbench.BackendCompiled)
		}

		base, _ := sim.CompileCached(golden, TopModule)
		for _, gm := range gangModes {
			for _, bs := range []struct {
				name string
				d    *sim.Design
			}{
				{"goldenbase", base},
				{"nobase", nil},
			} {
				for _, chunk := range []int{1, 2, len(srcs)} {
					gangSt := freshStimulus(st)
					got := make([]*testbench.FPTrace, 0, len(srcs))
					for lo := 0; lo < len(srcs); lo += chunk {
						hi := lo + chunk
						if hi > len(srcs) {
							hi = len(srcs)
						}
						got = append(got, testbench.RunFingerprintGangMode(srcs[lo:hi], TopModule, gangSt, testbench.BackendCompiled, bs.d, gm.mode)...)
					}
					for i := range srcs {
						fpEqual(t, fmt.Sprintf("%s %s/%s chunk=%d cand=%d", task.ID, gm.name, bs.name, chunk, i), got[i], solo[i])
					}
				}
			}
		}
	}
}

// gangModes enumerates both gang execution models for matrix tests.
var gangModes = []struct {
	name string
	mode testbench.GangMode
}{
	{"soa", testbench.GangSoA},
	{"perlane", testbench.GangPerLane},
}

// TestSuiteGangWideLanes exercises the wide gang sizes of the acceptance
// matrix (8 and 64 lanes) that the per-task test above cannot reach with a
// handful of mutants: for a spread of benchmark tasks it builds a 64-candidate
// pool of distinct mutants of the golden and requires both gang modes to match
// solo fingerprints when the pool is partitioned into gangs of 8 and one gang
// of 64, with and without the golden delta base.
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
			solo[i] = testbench.RunFingerprint(src, TopModule, soloSt, testbench.BackendCompiled)
		}

		base, _ := sim.CompileCached(golden, TopModule)
		for _, gm := range gangModes {
			for _, bd := range []*sim.Design{base, nil} {
				for _, chunk := range []int{8, 64} {
					gangSt := freshStimulus(st)
					got := make([]*testbench.FPTrace, 0, len(srcs))
					for lo := 0; lo < len(srcs); lo += chunk {
						hi := lo + chunk
						if hi > len(srcs) {
							hi = len(srcs)
						}
						got = append(got, testbench.RunFingerprintGangMode(srcs[lo:hi], TopModule, gangSt, testbench.BackendCompiled, bd, gm.mode)...)
					}
					for i := range srcs {
						fpEqual(t, fmt.Sprintf("%s %s base=%v chunk=%d cand=%d", task.ID, gm.name, bd != nil, chunk, i), got[i], solo[i])
					}
				}
			}
		}
	}
}
