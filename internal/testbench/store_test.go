package testbench

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/resultstore"
	"repro/internal/serve/faultinject"
	"repro/internal/sim"
	"repro/internal/verilog/ast"
)

// installStore swaps in s for the duration of the test.
func installStore(t *testing.T, s resultstore.Store) {
	t.Helper()
	prev := SetStore(s)
	t.Cleanup(func() { SetStore(prev) })
}

// countingStore counts Get calls through to the wrapped adapter.
type countingStore struct {
	resultstore.Store
	gets atomic.Int64
}

func (c *countingStore) Get(ctx context.Context, k resultstore.Key) ([]byte, bool, error) {
	c.gets.Add(1)
	return c.Store.Get(ctx, k)
}

// sameTraces fails unless a and b are bit-identical fingerprint traces.
func sameTraces(t *testing.T, label string, a, b *FPTrace) {
	t.Helper()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("%s: whole-run fingerprints differ: %#x vs %#x", label, a.Fingerprint(), b.Fingerprint())
	}
	if len(a.CaseFPs) != len(b.CaseFPs) {
		t.Fatalf("%s: case counts differ: %d vs %d", label, len(a.CaseFPs), len(b.CaseFPs))
	}
	for i := range a.CaseFPs {
		if a.CaseFPs[i] != b.CaseFPs[i] {
			t.Fatalf("%s: case %d fingerprints differ", label, i)
		}
	}
	switch {
	case a.Err == nil && b.Err == nil:
	case a.Err == nil || b.Err == nil:
		t.Fatalf("%s: error mismatch: %v vs %v", label, a.Err, b.Err)
	case a.Err.Error() != b.Err.Error():
		t.Fatalf("%s: error messages differ: %q vs %q", label, a.Err.Error(), b.Err.Error())
	}
}

// TestStoreRoundTripEquivalence is the codec + integration correctness
// gate: for clean candidates, functional mutants, and deterministic
// error traces, a result decoded from the disk store is bit-identical to
// the directly simulated one — and the warm pass performs zero
// simulations. Every pass uses a freshly generated stimulus (new pointer,
// identical content), so the in-process memo always misses and only the
// content-addressed store can short-circuit the run.
func TestStoreRoundTripEquivalence(t *testing.T) {
	d, err := resultstore.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.Logf = t.Logf
	installStore(t, d)

	srcs := map[string]string{
		"clean":  schedSeqSrc,
		"mutant": gangSeqVariant,
		// The missing-port candidate fails its binding deterministically,
		// so its trace carries a persistable ErrRun.
		"err-run": gangSeqMissingPort,
	}
	for label, code := range srcs {
		t.Run(label, func(t *testing.T) {
			src := mustParse(t, code)
			stim := func() *Stimulus { return NewGenerator(7301).Ranking(schedSeqIfc()) }

			pre := ReadStoreStats()
			direct := runOne(src, "top_module", stim(), BackendCompiled)
			mid := ReadStoreStats()
			if mid.Puts == pre.Puts {
				t.Fatal("cold pass published nothing to the store")
			}
			if mid.Sims == pre.Sims {
				t.Fatal("cold pass did not simulate")
			}
			warm := runOne(src, "top_module", stim(), BackendCompiled)
			post := ReadStoreStats()

			sameTraces(t, "warm vs direct", warm, direct)
			if post.Hits == mid.Hits {
				t.Fatal("warm pass missed the store")
			}
			if post.Sims != mid.Sims {
				t.Fatalf("warm pass simulated %d times, want 0", post.Sims-mid.Sims)
			}
			if label == "err-run" {
				if warm.Err == nil || !errors.Is(warm.Err, ErrRun) {
					t.Fatalf("decoded error lost its ErrRun identity: %v", warm.Err)
				}
			}
		})
	}
}

// TestGangStoreWarmSkipsSimulation drives a batch through its plan: with a
// warm store, every claimed job is served while planning, nothing
// simulates, and the batch's traces are bit-identical to the cold run's.
func TestGangStoreWarmSkipsSimulation(t *testing.T) {
	d, err := resultstore.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.Logf = t.Logf
	installStore(t, d)

	codes := []string{schedSeqSrc, gangSeqVariant, gangSeqLoop}
	srcs := make([]*ast.Source, len(codes))
	for i, code := range codes {
		srcs[i] = mustParse(t, code)
	}
	stim := func() *Stimulus { return NewGenerator(7401).Ranking(schedSeqIfc()) }

	cold := runBatch(srcs, "top_module", stim(), BackendCompiled)
	mid := ReadStoreStats()
	if mid.Sims == 0 {
		t.Fatal("cold batch pass performed no simulations")
	}
	warm := runBatch(srcs, "top_module", stim(), BackendCompiled)
	post := ReadStoreStats()
	if post.Sims != mid.Sims {
		t.Fatalf("warm batch pass simulated %d times, want 0", post.Sims-mid.Sims)
	}
	if post.Hits-mid.Hits != uint64(len(srcs)) {
		t.Fatalf("warm batch pass hit the store %d times, want %d", post.Hits-mid.Hits, len(srcs))
	}
	for i := range srcs {
		sameTraces(t, "batch warm vs cold", warm[i], cold[i])
	}
}

// TestStoreStampedeSingleFlight proves the memo claim spans tiers: a
// stampede of goroutines on one cold-in-process key costs exactly one
// store lookup and zero simulations when the store is warm.
func TestStoreStampedeSingleFlight(t *testing.T) {
	cs := &countingStore{Store: resultstore.NewMemory(0)}
	installStore(t, cs)

	src := mustParse(t, schedSeqSrc)
	stim := func() *Stimulus { return NewGenerator(7501).Ranking(schedSeqIfc()) }

	// Warm the store (fresh stimulus pointer: in-process memo misses).
	want := runOne(src, "top_module", stim(), BackendCompiled)

	cs.gets.Store(0)
	pre := ReadStoreStats()
	st := stim() // one shared stimulus: all goroutines collide on one key
	const goroutines = 12
	traces := make([]*FPTrace, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			traces[g] = runOne(src, "top_module", st, BackendCompiled)
		}(g)
	}
	wg.Wait()
	post := ReadStoreStats()

	if got := cs.gets.Load(); got != 1 {
		t.Fatalf("stampede performed %d store lookups, want 1 (single flight)", got)
	}
	if post.Sims != pre.Sims {
		t.Fatalf("stampede simulated %d times under a warm store, want 0", post.Sims-pre.Sims)
	}
	for g, tr := range traces {
		sameTraces(t, "stampede goroutine", tr, want)
		if g > 0 && tr != traces[0] {
			t.Fatal("stampede waiters did not share the published trace")
		}
	}
}

// TestStoreCancelMidPutLeavesStoreClean is the PR 8 abort-safety drill
// extended to the disk adapter: a job cancelled mid-Put publishes nothing
// (no partial entry, no temp debris), the store stays fully readable, and
// a re-run is bit-identical and persists normally.
func TestStoreCancelMidPutLeavesStoreClean(t *testing.T) {
	defer faultinject.Reset()
	d, err := resultstore.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.Logf = t.Logf
	installStore(t, d)

	src := mustParse(t, schedSeqSrc)
	stim := func() *Stimulus { return NewGenerator(7601).Ranking(schedSeqIfc()) }

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Arm(faultinject.PointStorePut, "", 1, cancel)
	pre := ReadStoreStats()
	first, err := runOneCtx(ctx, src, "top_module", stim(), BackendCompiled)
	if err != nil {
		// The cancel lands after the simulation published its result; the
		// run itself must still succeed.
		t.Fatalf("run cancelled mid-Put failed outright: %v", err)
	}
	mid := ReadStoreStats()
	faultinject.Reset()

	if mid.PutFails != pre.PutFails+1 {
		t.Fatalf("PutFails = %d, want %d", mid.PutFails, pre.PutFails+1)
	}
	if n, _ := d.Len(); n != 0 {
		t.Fatalf("cancelled Put left %d entries, want 0", n)
	}
	if temps, _ := filepath.Glob(filepath.Join(d.Root(), "*", "tmp-*")); len(temps) != 0 {
		t.Fatalf("cancelled Put leaked temp files: %v", temps)
	}

	// Re-run: recomputes (memo misses on the fresh stimulus), persists,
	// and matches bit-identically.
	second, err := runOneCtx(context.Background(), src, "top_module", stim(), BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	sameTraces(t, "re-run vs cancelled run", second, first)
	if n, _ := d.Len(); n != 1 {
		t.Fatalf("re-run persisted %d entries, want 1", n)
	}

	// And a third pass is served from the store without simulating.
	preWarm := ReadStoreStats()
	third, err := runOneCtx(context.Background(), src, "top_module", stim(), BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	postWarm := ReadStoreStats()
	sameTraces(t, "warm vs re-run", third, second)
	if postWarm.Sims != preWarm.Sims {
		t.Fatal("warm pass after recovery still simulated")
	}
}

// TestStorePanicIsConfined: a store adapter that panics on Put (crash at
// the injection point) or on Get must never take the run down — the
// wrapper recovers, counts, and the result is computed normally.
func TestStorePanicIsConfined(t *testing.T) {
	defer faultinject.Reset()
	d, err := resultstore.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.Logf = t.Logf
	installStore(t, d)

	src := mustParse(t, schedSeqSrc)
	stim := func() *Stimulus { return NewGenerator(7701).Ranking(schedSeqIfc()) }

	faultinject.Arm(faultinject.PointStorePut, "", 1, func() {
		panic("injected: store medium failure mid-publish")
	})
	pre := ReadStoreStats()
	tr, err := runOneCtx(context.Background(), src, "top_module", stim(), BackendCompiled)
	if err != nil || tr == nil || tr.Err != nil {
		t.Fatalf("run under store-put panic = (%v, %v), want clean result", tr, err)
	}
	post := ReadStoreStats()
	if post.PutFails != pre.PutFails+1 {
		t.Fatalf("PutFails = %d, want %d", post.PutFails, pre.PutFails+1)
	}
	faultinject.Reset()

	// The failed publish left no entry; the next run re-persists cleanly.
	if n, _ := d.Len(); n != 0 {
		t.Fatalf("panicked Put left %d entries", n)
	}
	rerun, err := runOneCtx(context.Background(), src, "top_module", stim(), BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	sameTraces(t, "re-run after put panic", rerun, tr)
	if n, _ := d.Len(); n != 1 {
		t.Fatal("store did not recover after put panic")
	}
}

// TestFPMemoEvictionSmallCap pins the configurable memory tier (satellite
// of the persistent store): at cap 2, a third distinct key evicts the
// oldest finished entry, whose re-run then simulates again — and still
// produces bit-identical results.
func TestFPMemoEvictionSmallCap(t *testing.T) {
	prev := SetFPMemoCap(2)
	defer SetFPMemoCap(prev)

	codes := []string{schedSeqSrc, gangSeqVariant, gangSeqLoop}
	st := NewGenerator(7801).Ranking(schedSeqIfc())
	first := make([]*FPTrace, len(codes))
	srcs := make([]*ast.Source, len(codes))
	for i, code := range codes {
		srcs[i] = mustParse(t, code)
		first[i] = runOne(srcs[i], "top_module", st, BackendCompiled)
	}
	if n := FPMemoLen(); n > 2 {
		t.Fatalf("FPMemoLen = %d after 3 runs at cap 2", n)
	}

	// srcs[0] was evicted: re-running it must simulate again (memo miss)
	// and reproduce the identical trace.
	pre := ReadStoreStats()
	again := runOne(srcs[0], "top_module", st, BackendCompiled)
	post := ReadStoreStats()
	if post.Sims == pre.Sims {
		t.Fatal("evicted entry was still served from the memo")
	}
	sameTraces(t, "post-eviction re-run", again, first[0])

	// A key still resident is served without simulation.
	pre = ReadStoreStats()
	cached := runOne(srcs[2], "top_module", st, BackendCompiled)
	post = ReadStoreStats()
	if post.Sims != pre.Sims {
		t.Fatal("resident entry missed the memo")
	}
	sameTraces(t, "resident entry", cached, first[2])
}

// TestFPMemoSurvivesCompileCacheEviction pins the memo's content keys: a
// published trace stays a hit after the compile cache has evicted the
// design it was simulated on, so re-running that candidate neither
// recompiles into a memo miss nor simulates again.
func TestFPMemoSurvivesCompileCacheEviction(t *testing.T) {
	st := NewGenerator(7811).Ranking(combIfc())
	x := mustParse(t, xorSrc)
	first := runOne(x, "top_module", st, BackendCompiled)

	// More distinct designs than the process-wide compile cache holds.
	for i := 0; i < 1100; i++ {
		src := mustParse(t, fmt.Sprintf("module top_module(input [15:0] a, output [15:0] y);\n    assign y = a + 16'd%d;\nendmodule\n", i))
		if _, err := sim.CompileCached(src, "top_module"); err != nil {
			t.Fatal(err)
		}
	}

	pre := ReadStoreStats()
	again := runOne(x, "top_module", st, BackendCompiled)
	if sims := ReadStoreStats().Sims - pre.Sims; sims != 0 {
		t.Fatalf("re-run after compile-cache eviction simulated %d times, want 0", sims)
	}
	sameTraces(t, "post-eviction re-run", again, first)
}

// TestCompileFailureLeavesNoMemoEntry runs a candidate that does not
// compile, solo and in a batch next to one that does: its memo claim is
// taken before compiling, and the failed compile must release it without a
// memo entry or a store record, while the error trace equals the solo one.
func TestCompileFailureLeavesNoMemoEntry(t *testing.T) {
	mem := resultstore.NewMemory(64)
	installStore(t, mem)
	st := NewGenerator(7813).Ranking(combIfc())
	bad := mustParse(t, "module other(input a, output y);\n    assign y = a;\nendmodule\n")
	good := mustParse(t, xorSrc)

	solo := soloRun(bad, "top_module", st, BackendCompiled)
	if solo.Err == nil {
		t.Fatal("a design without the top module compiled")
	}
	sameTraces(t, "run of one", runOne(bad, "top_module", st, BackendCompiled), solo)
	batch := runBatch([]*ast.Source{bad, good}, "top_module", st, BackendCompiled)
	sameTraces(t, "batch", batch[0], solo)
	if batch[1].Err != nil {
		t.Fatalf("compiling candidate errored: %v", batch[1].Err)
	}

	_, resident := fpMemo.Resident(memoKey(bad, "top_module", st, nil))
	if resident {
		t.Error("failed compile left a memo entry")
	}
	if n, _ := mem.Len(); n != 1 {
		t.Errorf("store holds %d records, want 1 (the compiling candidate only)", n)
	}
}
