package testbench

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/resultstore"
	"repro/internal/serve/faultinject"
	"repro/internal/sim"
	"repro/internal/verilog/ast"
)

// faultSrcs is the candidate mix the fault drills run: two healthy designs,
// a functional mutant, and a duplicate of the golden.
func faultSrcs(t *testing.T) []*ast.Source {
	t.Helper()
	golden := mustParse(t, schedSeqSrc)
	return []*ast.Source{golden, mustParse(t, gangSeqVariant), golden}
}

// TestGangPanicIsolatedToCandidate injects a simulator crash into exactly
// one candidate of a batch (sticky: every run of it crashes until the
// reset). The faulty candidate must resolve to its own ErrSimPanic trace,
// every other candidate must stay bit-identical to a clean solo run, and after disarming, a re-run of the whole batch must be
// bit-identical to a never-faulted run — the crash may not leave a
// poisoned or stale memo entry behind.
func TestGangPanicIsolatedToCandidate(t *testing.T) {
	defer faultinject.Reset()
	srcs := faultSrcs(t)
	victim := sim.CanonicalKey(srcs[1])
	st := NewGenerator(31).Ranking(schedSeqIfc())

	faultinject.ArmFrom(faultinject.PointSimCase, victim, 1, func() {
		panic("injected simulator crash")
	})
	out, err := RunFingerprints(context.Background(), srcs, "top_module", st, BackendCompiled)
	if err != nil {
		t.Fatalf("faulted batch returned batch-level error: %v", err)
	}
	if out[1].Err == nil || !errors.Is(out[1].Err, ErrSimPanic) {
		t.Fatalf("victim error = %v, want ErrSimPanic", out[1].Err)
	}
	for _, i := range []int{0, 2} {
		fpTraceEqual(t, "faulted/survivor", out[i], soloRun(srcs[i], "top_module", st, BackendCompiled))
	}

	faultinject.Reset()
	clean := runBatch(srcs, "top_module", st, BackendCompiled)
	for i := range srcs {
		fpTraceEqual(t, "post-fault rerun", clean[i], soloRun(srcs[i], "top_module", st, BackendCompiled))
	}
	if clean[1].Err != nil {
		t.Fatalf("victim still failing after disarm: %v", clean[1].Err)
	}
}

// TestGangCancelAtCaseN cancels the batch context on the n-th simulated
// case. The batch must unwind with the context's error in bounded time,
// and the cancelled claims must be released: a clean re-run of the same
// batch recomputes every entry to bit-identical results.
func TestGangCancelAtCaseN(t *testing.T) {
	defer faultinject.Reset()
	srcs := faultSrcs(t)
	st := NewGenerator(37).Ranking(schedSeqIfc())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Arm(faultinject.PointSimCase, "", 3, cancel)
	out, err := RunFingerprints(ctx, srcs, "top_module", st, BackendCompiled)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (out=%v), want context.Canceled", err, out)
	}

	faultinject.Reset()
	clean := runBatch(srcs, "top_module", st, BackendCompiled)
	for i := range srcs {
		fpTraceEqual(t, "post-cancel rerun", clean[i], soloRun(srcs[i], "top_module", st, BackendCompiled))
	}
}

// TestMemoClaimReleasedUnderCancel runs one cancellable claimant against a
// crowd of waiters on the same (design, stimulus) memo entry, cancelling a
// context mid-simulation. Whichever goroutine holds the claim when the
// cancel lands must release it (abort), and every goroutine with a live
// context must still converge — by adoption or by waiting on the next
// owner — on the same clean trace, without deadlock (the -race test hangs
// if waiters are stranded). Run with -race.
func TestMemoClaimReleasedUnderCancel(t *testing.T) {
	defer faultinject.Reset()
	src := mustParse(t, schedSeqSrc)
	st := NewGenerator(41).Ranking(schedSeqIfc())
	want := soloRun(src, "top_module", st, BackendCompiled)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Arm(faultinject.PointSimCase, "", 2, cancel)

	const waiters = 8
	results := make([]*FPTrace, waiters)
	errs := make([]error, waiters)
	var cancelledErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, cancelledErr = runOneCtx(ctx, src, "top_module", st, BackendCompiled)
	}()
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = runOneCtx(context.Background(), src, "top_module", st, BackendCompiled)
		}(i)
	}
	wg.Wait()

	// The cancellable goroutine either finished before the cancel landed or
	// reports the context error; it must never report anything else.
	if cancelledErr != nil && !errors.Is(cancelledErr, context.Canceled) {
		t.Fatalf("cancelled claimant: %v", cancelledErr)
	}
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		fpTraceEqual(t, "waiter", results[i], want)
	}
}

// TestBindPanicDoesNotPoisonMemo crashes the single-flight binding
// resolution. The crash must surface as a per-candidate ErrSimPanic (the
// candidate's run dies, nobody else's), and the bind memo must drop the
// half-resolved entry: the next run re-binds and produces bit-identical
// clean results.
func TestBindPanicDoesNotPoisonMemo(t *testing.T) {
	defer faultinject.Reset()
	src := mustParse(t, schedSeqSrc)
	// The fault must land on a memo-cold binding, so the faulted stimulus
	// is built fresh; the reference below uses a second, identical-content
	// stimulus whose binding universe never saw the crash.
	st := NewGenerator(43).Ranking(schedSeqIfc())

	faultinject.Arm(faultinject.PointBind, "", 1, func() {
		panic("injected bind crash")
	})
	tr := soloRun(src, "top_module", st, BackendCompiled)
	if tr.Err == nil || !errors.Is(tr.Err, ErrSimPanic) {
		t.Fatalf("faulted bind error = %v, want ErrSimPanic", tr.Err)
	}

	faultinject.Reset()
	want := soloRun(src, "top_module", NewGenerator(43).Ranking(schedSeqIfc()), BackendCompiled)
	fpTraceEqual(t, "post-bind-crash", soloRun(src, "top_module", st, BackendCompiled), want)
}

// TestGangBindPanicFallsBackSolo crashes the bind once during a batch run.
// The crash lands in the first candidate's own run: its trace is
// ErrSimPanic and its memo claim is aborted, not published. Every other
// candidate equals its solo run — the golden's duplicate included, which
// adopts the aborted claim and re-binds cleanly (the one-shot arm is spent
// and the bind memo dropped the entry) — and after the reset a rerun of the
// batch is solo-identical for every candidate.
func TestGangBindPanicFallsBackSolo(t *testing.T) {
	defer faultinject.Reset()
	srcs := faultSrcs(t)
	st := NewGenerator(47).Ranking(schedSeqIfc())

	faultinject.Arm(faultinject.PointBind, "", 1, func() {
		panic("injected bind crash")
	})
	out := runBatch(srcs, "top_module", st, BackendCompiled)
	faultinject.Reset()
	if out[0].Err == nil || !errors.Is(out[0].Err, ErrSimPanic) {
		t.Fatalf("crashed candidate error = %v, want ErrSimPanic", out[0].Err)
	}
	for _, i := range []int{1, 2} {
		fpTraceEqual(t, "bind-crash/survivor", out[i], soloRun(srcs[i], "top_module", st, BackendCompiled))
	}
	// The memo holds the duplicate's clean run, never the crash.
	if tr, ok := fpMemo.Peek(memoKey(srcs[0], "top_module", st, nil)); !ok || tr == out[0] || tr.Err != nil {
		t.Fatalf("memo entry after the crash = %+v (published %v), want the clean rerun", tr, ok)
	}

	rerun := runBatch(srcs, "top_module", st, BackendCompiled)
	for i := range srcs {
		fpTraceEqual(t, "post-bind-crash rerun", rerun[i], soloRun(srcs[i], "top_module", st, BackendCompiled))
	}
}

// TestRunFingerprintCtxPreCancelled: a context that is already dead must
// reject a run of one before any simulation, leaving no claim behind.
func TestRunFingerprintCtxPreCancelled(t *testing.T) {
	src := mustParse(t, schedSeqSrc)
	st := NewGenerator(53).Ranking(schedSeqIfc())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srcs := []*ast.Source{src}
	if _, err := RunFingerprints(ctx, srcs, "top_module", st, BackendCompiled); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The claim must have been released: a clean run still works.
	out, err := RunFingerprints(context.Background(), srcs, "top_module", st, BackendCompiled)
	if err != nil || out[0].Err != nil {
		t.Fatalf("post-cancel run: %v / %v", err, out)
	}
}

// gateStore is an empty store whose Get reports its arrival and then blocks
// until gate closes: it holds a plan that adopted a claim at the store
// lookup Finish makes before running the job.
type gateStore struct {
	resultstore.Store
	arrived chan struct{}
	gate    chan struct{}
}

func (g *gateStore) Get(ctx context.Context, k resultstore.Key) ([]byte, bool, error) {
	select {
	case g.arrived <- struct{}{}:
	default:
	}
	<-g.gate
	return g.Store.Get(ctx, k)
}

// TestGangPlanCrossedAdoption: a third caller holds the claims of two jobs,
// and two plans wait on them in opposite orders. The third caller aborts
// both, and each plan adopts the claim it waits on first; a gated store
// holds both plans at their adoption until each holds one claim. A plan
// that kept its adopted claim while it waited on the other entry would now
// deadlock against the other plan. Finish runs each adopted job before it
// waits again, so both return, with solo-identical traces. Run with -race.
func TestGangPlanCrossedAdoption(t *testing.T) {
	a, b := mustParse(t, schedSeqSrc), mustParse(t, gangSeqVariant)
	st := NewGenerator(61).Ranking(schedSeqIfc())
	var held []*fpEntry
	for _, src := range []*ast.Source{a, b} {
		e, owner := fpMemo.Acquire(memoKey(src, "top_module", st, nil))
		if !owner {
			t.Fatal("premise: a fresh stimulus must miss the memo")
		}
		held = append(held, e)
	}

	orders := [][]*ast.Source{{a, b}, {b, a}}
	results := make([][]*FPTrace, len(orders))
	errs := make([]error, len(orders))
	var wg sync.WaitGroup
	for i, srcs := range orders {
		p := PlanGang(context.Background(), srcs, "top_module", st, BackendCompiled)
		if p.Pending(0) || p.Pending(1) {
			t.Fatal("premise: both jobs must wait on the held claims")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.Release()
			if errs[i] = p.Run(context.Background(), []int{0, 1}); errs[i] == nil {
				results[i], errs[i] = p.Finish(context.Background())
			}
		}()
	}
	// Installed only now, so planning above read no store.
	gs := &gateStore{Store: resultstore.NewMemory(16), arrived: make(chan struct{}, len(orders)), gate: make(chan struct{})}
	installStore(t, gs)
	for _, e := range held {
		e.Abort()
	}
	bound := time.After(30 * time.Second)
	for range orders {
		select {
		case <-gs.arrived:
		case <-bound:
			close(gs.gate)
			t.Fatal("the plans did not both adopt a claim")
		}
	}
	close(gs.gate) // each plan now holds the claim the other waits on next

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-bound:
		t.Fatal("plans that adopted crossed claims did not finish: deadlock")
	}
	for i, srcs := range orders {
		if errs[i] != nil {
			t.Fatalf("plan %d: %v", i, errs[i])
		}
		for j, src := range srcs {
			fpTraceEqual(t, "crossed adoption", results[i][j], soloRun(src, "top_module", st, BackendCompiled))
		}
	}
}
