package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/mutate"
	"repro/internal/sim"
	"repro/internal/testbench"
	"repro/internal/verilog/ast"
	"repro/internal/verilog/parser"
	"repro/internal/verilog/printer"
	"repro/internal/xrng"
)

// FuzzRankPoolMetamorphic holds RankPool to the ranking contract of the
// paper's stage 2 (Eq. 2-3) without an expected output: clusters group
// candidates by full-trace agreement and are scored by their size, so a
// ranking depends only on the multiset of candidate behaviours. Over a
// fuzz-picked task, a SimClient pool and semantic mutants of its members:
//
//   - permuting srcs permutes Members and leaves the (fingerprint, score)
//     sequence unchanged;
//   - appending a copy of a clustered candidate raises its cluster's score
//     by exactly one;
//   - nil entries only shift indices;
//   - Workers 1 and 4 give the same result;
//   - every ranked candidate's trace is its solo interpreter run
//     (testbench.RunBackend on BackendInterpreter).
//
// Every ranking runs under a fresh stimulus value with the same content, so
// each one misses the fingerprint memo and really simulates. When the high
// bit of mutants is set, the pool also holds a probed copy of a valid
// sample (probeCandidate): a design the register file refuses, which the
// compiled backend ranks on the interpreter.
func FuzzRankPoolMetamorphic(f *testing.F) {
	f.Fuzz(func(t *testing.T, taskIdx uint16, seed int64, size uint8, mutants uint8, shuffle uint64, dup uint8, pad uint64) {
		suite := eval.Suite()
		task := suite[int(taskIdx)%len(suite)]
		srcs := metamorphicPool(t, task, seed, 2+int(size)%15, int(mutants)%5, mutants&0x80 != 0)
		golden, err := eval.ParseCached(task.Golden)
		if err != nil {
			t.Fatal(err)
		}
		stim := func() *testbench.Stimulus { return testbench.NewGenerator(seed).Ranking(task.Ifc) }
		rank := func(pool []*ast.Source, workers int) *RankPoolResult {
			t.Helper()
			res, err := RankPool(context.Background(), pool, stim(), RankPoolConfig{Workers: workers, Golden: golden})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		n := len(srcs)
		base := rank(srcs, 1)

		// Solo agreement with the interpreter.
		for i, src := range srcs {
			if src == nil || base.FPs[i] == nil {
				continue
			}
			solo := testbench.RunBackend(src, eval.TopModule, stim(), testbench.BackendInterpreter).FP()
			if !slices.Equal(base.FPs[i].CaseFPs, solo.CaseFPs) || !sameTrace(base.FPs[i], solo) {
				t.Fatalf("candidate %d: ranked trace differs from its solo interpreter run", i)
			}
		}
		identity := make([]int, n)
		for i := range identity {
			identity[i] = i
		}

		// Schedule independence.
		checkMapped(t, "workers 4", base, rank(srcs, 4), identity, mapClusters(base.Clusters, identity))

		// Permutation: candidate i moves to to[i].
		to := slices.Clone(identity)
		xrng.New(shuffle).Shuffle(n, func(i, j int) { to[i], to[j] = to[j], to[i] })
		permuted := make([]*ast.Source, n)
		for i, src := range srcs {
			permuted[to[i]] = src
		}
		checkMapped(t, "permutation", base, rank(permuted, 1), to, mapClusters(base.Clusters, to))

		// Duplication: a copy of a clustered candidate joins its cluster.
		if len(base.Clusters) > 0 {
			var clustered []int
			for _, cl := range base.Clusters {
				clustered = append(clustered, cl.Members...)
			}
			slices.Sort(clustered)
			i := clustered[int(dup)%len(clustered)]
			want := mapClusters(base.Clusters, identity)
			for k := range want {
				if slices.Contains(want[k].Members, i) {
					want[k].Members = append(want[k].Members, n)
					want[k].Score++
				}
			}
			sortClusters(want)
			got := rank(append(srcs[:n:n], srcs[i]), 1)
			checkMapped(t, fmt.Sprintf("duplicate of %d", i), base, got, identity, want)
			if !sameTrace(got.FPs[n], base.FPs[i]) {
				t.Fatalf("duplicate of %d: the copy's trace differs from the original's", i)
			}
		}

		// Padding: bit k of pad puts a nil before candidate k%64.
		var padded []*ast.Source
		at := make([]int, n)
		for i, src := range srcs {
			if pad>>(uint(i)%64)&1 == 1 {
				padded = append(padded, nil)
			}
			at[i] = len(padded)
			padded = append(padded, src)
		}
		got := rank(padded, 1)
		checkMapped(t, "padding", base, got, at, mapClusters(base.Clusters, at))
		for j, src := range padded {
			if src == nil && got.FPs[j] != nil {
				t.Fatalf("padding: nil entry %d got a trace", j)
			}
		}
	})
}

// metamorphicPool draws n samples for task from a SimClient seeded by seed
// (an invalid completion keeps its slot as nil), then appends the given
// number of semantic mutants of valid samples and, if probe is set, a
// probed copy of a valid sample, each printed and validated like any
// completion.
func metamorphicPool(t *testing.T, task eval.Task, seed int64, n, mutants int, probe bool) []*ast.Source {
	t.Helper()
	profile, err := llm.ProfileByName("qwq-32b")
	if err != nil {
		t.Fatal(err)
	}
	client, err := llm.NewSimClient(profile, seed, []eval.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	var srcs, valid []*ast.Source
	for i := 0; i < n; i++ {
		resp, err := client.Generate(context.Background(), llm.GenerateRequest{TaskID: task.ID, Spec: task.Spec, SampleIndex: i})
		if errors.Is(err, llm.ErrTransient) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		src, ok := ValidateCandidate(resp.Code)
		if !ok {
			src = nil
		} else {
			valid = append(valid, src)
		}
		srcs = append(srcs, src)
	}
	rng := xrng.New(uint64(seed))
	for k := 0; k < mutants && len(valid) > 0; k++ {
		src := valid[rng.Intn(len(valid))]
		top := src.FindModule(eval.TopModule)
		mutant, _ := mutate.Semantic(top, rng, mutate.Config{Count: 1})
		if mutant == nil {
			continue
		}
		srcs = append(srcs, withTop(src, mutant))
	}
	if probe && len(valid) > 0 {
		in := task.Ifc.Inputs[0]
		if data := task.Ifc.DataInputs(); len(data) > 0 {
			in = data[0]
		}
		srcs = append(srcs, probeCandidate(t, valid[rng.Intn(len(valid))], in))
	}
	return srcs
}

// withTop prints src with its top module replaced by top and validates the
// text like any completion: nil if it does not validate.
func withTop(src *ast.Source, top *ast.Module) *ast.Source {
	old := src.FindModule(eval.TopModule)
	var b []byte
	for _, m := range src.Modules {
		if m == old {
			m = top
		}
		b = append(printer.AppendModule(b, m), '\n')
	}
	v, ok := ValidateCandidate(string(b))
	if !ok {
		return nil
	}
	return v
}

// probeCandidate returns src with an unobserved wire that reduces a
// dynamic part-select of input in: the outputs, and so the trace, are
// src's, but the register file cannot size the select, so sim.Compile
// refuses the design with sim.ErrUnsupported. Nil if the probed text does
// not validate.
func probeCandidate(t *testing.T, src *ast.Source, in testbench.PortSpec) *ast.Source {
	t.Helper()
	snippet, err := parser.Parse(fmt.Sprintf(`module probe (input [%[1]d:0] %[2]s);
    wire vfocus_probe;
    assign vfocus_probe = ^%[2]s[%[1]d + (%[2]s & 1'b0):0];
endmodule
`, in.Width-1, in.Name))
	if err != nil {
		t.Fatal(err)
	}
	top := *src.FindModule(eval.TopModule)
	top.Items = append(slices.Clip(top.Items), snippet.Modules[0].Items...)
	v := withTop(src, &top)
	if v == nil {
		return nil
	}
	if _, err := sim.Compile(v, eval.TopModule); !errors.Is(err, sim.ErrUnsupported) {
		t.Fatalf("probed candidate: Compile returned %v, want sim.ErrUnsupported", err)
	}
	return v
}

// mapClusters returns cls with every member i renamed to to[i], members
// ascending (clusters keep their order: the renaming changes neither score
// nor fingerprint).
func mapClusters(cls []Cluster, to []int) []Cluster {
	out := make([]Cluster, len(cls))
	for k, cl := range cls {
		members := make([]int, len(cl.Members))
		for j, m := range cl.Members {
			members[j] = to[m]
		}
		slices.Sort(members)
		out[k] = Cluster{Members: members, Fingerprint: cl.Fingerprint, Score: cl.Score}
	}
	return out
}

// sortClusters orders clusters as RankPool does: score descending, then
// fingerprint ascending.
func sortClusters(cls []Cluster) {
	sort.Slice(cls, func(a, b int) bool {
		if cls[a].Score != cls[b].Score {
			return cls[a].Score > cls[b].Score
		}
		return cls[a].Fingerprint < cls[b].Fingerprint
	})
}

// checkMapped requires got to be base's ranking with candidate i at index
// to[i]: the same trace per candidate (none for a nil entry), the same number of distinct designs,
// and exactly the clusters want.
func checkMapped(t *testing.T, label string, base, got *RankPoolResult, to []int, want []Cluster) {
	t.Helper()
	for i, j := range to {
		if a, b := got.FPs[j], base.FPs[i]; (a == nil) != (b == nil) || a != nil && !sameTrace(a, b) {
			t.Fatalf("%s: candidate %d (now %d) has a different trace", label, i, j)
		}
	}
	if got.UniqueJobs != base.UniqueJobs {
		t.Fatalf("%s: %d unique jobs, want %d", label, got.UniqueJobs, base.UniqueJobs)
	}
	if !reflect.DeepEqual(got.Clusters, want) {
		t.Fatalf("%s: clusters\n%v\nwant\n%v", label, got.Clusters, want)
	}
}
