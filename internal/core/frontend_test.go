package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/sim"
	"repro/internal/testbench"
	"repro/internal/verilog/ast"
	"repro/internal/verilog/parser"
)

// heapAfterGC returns the live heap after a full collection.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// wideCandidate returns a distinct valid candidate of about size bytes: a
// chain of internal nets, each a gate of its predecessor and the inputs.
func wideCandidate(id, size int) string {
	var b strings.Builder
	b.Grow(size + 256)
	fmt.Fprintf(&b, "module top_module(\n    input a,\n    input b,\n    output y\n);\n    // candidate %d\n    wire n0 = a;\n", id)
	ops := []string{"&", "|", "^"}
	k := 1
	for ; b.Len() < size; k++ {
		fmt.Fprintf(&b, "    wire n%d = (n%d %s b) ^ a;\n", k, k-1, ops[(k+id)%len(ops)])
	}
	fmt.Fprintf(&b, "    assign y = n%d;\nendmodule\n", k-1)
	return b.String()
}

// paddedCandidate returns a distinct valid candidate of about size bytes,
// most of them a trailing comment: a large text that parses quickly.
func paddedCandidate(id, size int) string {
	code := wideCandidate(id, 4<<10)
	line := "// " + strings.Repeat("-", 60) + "\n"
	return code + strings.Repeat(line, (size-len(code))/len(line))
}

// TestFrontEndMemoBytesBounded is the byte bound on the candidate front
// end. Sixty-four distinct ~1 MiB candidates, as many ~96 KiB ones of
// dense logic (each charged under the budget, so they do become resident
// and their ASTs count) and the two 2 MB
// bodies nested 10^6 deep all go through ValidateCandidate; afterwards the
// live heap may have grown by at most the memo's budget plus 1 MiB. The
// charge per text byte must also stay within 0.5x-2x of what a text and its
// AST actually retain, over the suite goldens and one model's seed-1 pools.
func TestFrontEndMemoBytesBounded(t *testing.T) {
	var texts []string
	for _, task := range eval.Suite() {
		texts = append(texts, task.Golden)
	}
	checkCharge(t, "goldens", texts)
	checkCharge(t, "qwq-32b seed-1 pools", seedPools(t, "qwq-32b", 1, 50))

	before := heapAfterGC()
	for i := 0; i < 64; i++ {
		if _, ok := ValidateCandidate(paddedCandidate(i, 1<<20)); !ok {
			t.Fatalf("1 MiB candidate %d is not valid", i)
		}
	}
	for i := 0; i < 64; i++ {
		if _, ok := ValidateCandidate(wideCandidate(i, 96<<10)); !ok {
			t.Fatalf("96 KiB candidate %d is not valid", i)
		}
	}
	const deep = 1_000_000
	for _, code := range []string{
		deepBody(strings.Repeat("(", deep) + "a" + strings.Repeat(")", deep)),
		deepBody(strings.Repeat("~", deep) + "a"),
	} {
		if _, ok := ValidateCandidate(code); ok {
			t.Fatal("candidate nested 10^6 deep validated")
		}
	}
	after := heapAfterGC()
	grown := int64(after) - int64(before)
	t.Logf("live heap %.1f -> %.1f MiB; memo %+v", float64(before)/(1<<20), float64(after)/(1<<20), eval.FrontEndMemoStats())
	if limit := int64(eval.FrontEndBudget + 1<<20); grown > limit {
		t.Fatalf("live heap grew %.1f MiB, want at most %.1f MiB (budget + 1 MiB)", float64(grown)/(1<<20), float64(limit)/(1<<20))
	}
}

// checkCharge measures what texts retain once parsed (the texts themselves
// plus their ASTs) per text byte, against the front-end memo's charge.
func checkCharge(t *testing.T, name string, texts []string) {
	t.Helper()
	base := heapAfterGC()
	owned := make([]string, len(texts))
	var n int
	for i, s := range texts {
		owned[i] = strings.Clone(s)
		n += len(s)
	}
	asts := make([]*ast.Source, len(owned))
	for i, s := range owned {
		asts[i], _ = parser.Parse(s)
	}
	perByte := float64(heapAfterGC()-base) / float64(n)
	runtime.KeepAlive(owned)
	runtime.KeepAlive(asts)
	charge := float64(eval.FrontEndChargePerByte)
	t.Logf("%s: %d texts, %d bytes, %.1f bytes retained per text byte, charged %.0f", name, len(texts), n, perByte, charge)
	if charge < perByte/2 || charge > 2*perByte {
		t.Errorf("%s: charged %.0f per text byte, but a text and its AST retain %.1f", name, charge, perByte)
	}
}

// seedPools returns model's completions at seed for every suite task,
// samples per task, as the Table I pipelines draw them.
func seedPools(t *testing.T, model string, seed int64, samples int) []string {
	t.Helper()
	profile, err := llm.ProfileByName(model)
	if err != nil {
		t.Fatal(err)
	}
	suite := eval.Suite()
	client, err := llm.NewSimClient(profile, seed, suite)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, task := range suite {
		for i := 0; i < samples; i++ {
			resp, err := client.Generate(context.Background(), llm.GenerateRequest{TaskID: task.ID, Spec: task.Spec, SampleIndex: i})
			if errors.Is(err, llm.ErrTransient) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			texts = append(texts, resp.Code)
		}
	}
	return texts
}

// flushIDs numbers the texts flushFrontEnd streams, so each call's are new.
var flushIDs atomic.Int64

// flushFrontEnd pushes every resident entry out of the process-wide
// front-end memo by streaming new texts worth four budgets through it: each
// resident entry is passed over at most once before its eviction.
func flushFrontEnd(t *testing.T) {
	t.Helper()
	const size = 96 << 10
	for n := 0; n < 4*eval.FrontEndBudget/(eval.FrontEndChargePerByte*size); n++ {
		if _, ok := ValidateCandidate(paddedCandidate(int(flushIDs.Add(1)), size)); !ok {
			t.Fatal("flush candidate is not valid")
		}
	}
}

// TestFrontEndMemoWorkCounts replays the daemon-hot workload's calls at a
// smaller scale — 8 qwq-32b pools of 120 (tasks every 7th of the suite, the
// benchmark's seed for run seed 1), 200 jobs on 2 goroutines, each job
// ValidateCandidate per candidate then RankPool anchored on the golden — and
// counts the front end's work: each distinct text is parsed exactly once,
// and each valid one's NormalKey is printed exactly once.
func TestFrontEndMemoWorkCounts(t *testing.T) {
	const (
		pools, poolSize, jobs, workers = 8, 120, 200, 2
		seed                           = 1_000_000
	)
	flushFrontEnd(t)
	profile, err := llm.ProfileByName("qwq-32b")
	if err != nil {
		t.Fatal(err)
	}
	suite := eval.Suite()
	tasks := make([]eval.Task, pools)
	codes := make([][]string, pools)
	distinct := map[string]bool{}
	for d := range tasks {
		tasks[d] = suite[7*d]
		client, err := llm.NewSimClient(profile, seed, []eval.Task{tasks[d]})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < poolSize; i++ {
			resp, err := client.Generate(context.Background(), llm.GenerateRequest{TaskID: tasks[d].ID, Spec: tasks[d].Spec, SampleIndex: i})
			if errors.Is(err, llm.ErrTransient) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			codes[d] = append(codes[d], resp.Code)
			distinct[resp.Code] = true
		}
	}
	if len(distinct) != 286 {
		t.Fatalf("the pools hold %d distinct texts, want the benchmark's 286", len(distinct))
	}

	pre := eval.FrontEndMemoStats()
	normal0, _ := sim.DesignKeyPrints()
	var validTexts sync.Map
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < jobs; k = int(next.Add(1) - 1) {
				d := k % pools
				task := tasks[d]
				srcs := make([]*ast.Source, len(codes[d]))
				for i, code := range codes[d] {
					if src, ok := ValidateCandidate(code); ok {
						srcs[i] = src
						validTexts.Store(code, true)
					}
				}
				st := testbench.RankingCached(seed+int64(task.Index), 0, task.Ifc)
				golden, err := eval.ParseCached(task.Golden)
				if err != nil {
					errs[k] = err
					continue
				}
				_, errs[k] = RankPool(context.Background(), srcs, st, RankPoolConfig{Backend: testbench.BackendCompiled, Workers: 1, Golden: golden})
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	post := eval.FrontEndMemoStats()
	normal1, _ := sim.DesignKeyPrints()
	nValid := 0
	validTexts.Range(func(any, any) bool { nValid++; return true })

	// The goldens were parsed when the clients were built; they are looked
	// up once per job and never evicted, as the working set fits the budget.
	parses := post.Misses - pre.Misses
	t.Logf("memo %+v -> %+v; %d distinct texts, %d valid, %d NormalKeys printed", pre, post, len(distinct), nValid, normal1-normal0)
	if parses != uint64(len(distinct)) {
		t.Errorf("parsed %d texts, want each of the %d distinct texts once", parses, len(distinct))
	}
	if post.Evictions != pre.Evictions {
		t.Errorf("the replay evicted %d entries; its working set fits the budget", post.Evictions-pre.Evictions)
	}
	if got := normal1 - normal0; got != uint64(nValid) {
		t.Errorf("printed %d NormalKeys, want one per valid distinct text (%d)", got, nValid)
	}
}
