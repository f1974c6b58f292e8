package testbench

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// countingInst wraps an Instance and counts handle resolutions, so tests can
// observe how many times a binding was actually resolved.
type countingInst struct {
	sim.Instance
	inCalls  *atomic.Int32
	outCalls *atomic.Int32
}

func (ci countingInst) InputHandle(name string) (int, error) {
	ci.inCalls.Add(1)
	return ci.Instance.InputHandle(name)
}

func (ci countingInst) OutputHandle(name string) (int, error) {
	ci.outCalls.Add(1)
	return ci.Instance.OutputHandle(name)
}

// TestCachedBindSingleFlightUnderConcurrency regression-tests the bind memo
// against its former check-then-act race: concurrent missers on one cold
// (design, schedule) key used to each run sc.bind and clobber one another's
// entry. The single-flight memo must resolve the binding exactly once, with
// every caller receiving that one result.
func TestCachedBindSingleFlightUnderConcurrency(t *testing.T) {
	ifc := schedSeqIfc()
	parsed := mustParse(t, schedSeqSrc)
	d, err := sim.CompileCached(parsed, "top_module")
	if err != nil {
		t.Fatal(err)
	}
	// Fresh generator (not the stimulus cache) -> fresh Schedule pointer ->
	// cold bind key.
	st := NewGenerator(33).Ranking(ifc)
	sc := st.schedule()
	if sc == nil {
		t.Fatal("generated stimulus must be schedulable")
	}

	// Expected per-resolution handle counts, measured on a direct bind.
	var wantIn, wantOut atomic.Int32
	en := d.AcquireEngine()
	if _, ok := sc.bind(countingInst{Instance: en, inCalls: &wantIn, outCalls: &wantOut}, &ifc); !ok {
		t.Fatal("direct bind failed")
	}
	d.ReleaseEngine(en)

	// A second fresh schedule of the same stimulus shape gives the cold key
	// the burst races on.
	st2 := NewGenerator(33).Ranking(ifc)
	sc2 := st2.schedule()
	var gotIn, gotOut atomic.Int32
	var wg sync.WaitGroup
	gate := make(chan struct{})
	results := make([]binding, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			en := d.AcquireEngine()
			defer d.ReleaseEngine(en)
			<-gate
			b, ok := cachedBind(d, sc2, countingInst{Instance: en, inCalls: &gotIn, outCalls: &gotOut}, &ifc)
			if !ok {
				t.Error("cachedBind failed")
				return
			}
			results[i] = b
		}(i)
	}
	close(gate)
	wg.Wait()

	if gotIn.Load() != wantIn.Load() || gotOut.Load() != wantOut.Load() {
		t.Errorf("burst resolved handles %d/%d times, want exactly one bind's worth (%d/%d)",
			gotIn.Load(), gotOut.Load(), wantIn.Load(), wantOut.Load())
	}
	for i := 1; i < len(results); i++ {
		if results[i].clock != results[0].clock ||
			len(results[i].ins) != len(results[0].ins) ||
			len(results[i].outs) != len(results[0].outs) {
			t.Fatalf("caller %d received a different binding", i)
		}
	}
}

// blockingInst keeps a bind resolution in flight until its gate opens.
type blockingInst struct {
	sim.Instance
	gate  <-chan struct{}
	start chan<- struct{}
	calls *atomic.Int32
}

func (bi blockingInst) InputHandle(string) (int, error) {
	bi.calls.Add(1)
	if bi.start != nil {
		close(bi.start)
	}
	<-bi.gate
	return 0, nil
}

// TestBindMemoLRUEviction replaces the old wholesale flush check: entries
// past the cap must be evicted one at a time in LRU order, recently used
// entries survive, and in-flight (unresolved) entries are pinned.
func TestBindMemoLRUEviction(t *testing.T) {
	// Empty schedules resolve without touching the instance, so synthetic
	// keys are cheap: each distinct *Schedule is one memo key.
	emptyIfc := Interface{}
	mk := func() *Schedule { return &Schedule{} }

	victim, keeper := mk(), mk()
	cachedBind(nil, victim, nil, &emptyIfc)
	cachedBind(nil, keeper, nil, &emptyIfc)

	// An in-flight resolution on a one-name schedule must survive any amount
	// of churn below.
	inflight := &Schedule{names: []string{"x"}, widths: []int32{1}, wordsOf: []int32{1}}
	var calls atomic.Int32
	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cachedBind(nil, inflight, blockingInst{gate: gate, start: started, calls: &calls}, &emptyIfc)
	}()
	<-started

	// Churn far past the cap, touching keeper along the way so it stays hot.
	for i := 0; i < bindMemoCap+8; i++ {
		cachedBind(nil, mk(), nil, &emptyIfc)
		if i == bindMemoCap/2 {
			cachedBind(nil, keeper, nil, &emptyIfc)
		}
	}

	_, victimAlive := bindMemo.Resident(bindKey{d: nil, sc: victim})
	_, keeperAlive := bindMemo.Resident(bindKey{d: nil, sc: keeper})
	_, inflightAlive := bindMemo.Resident(bindKey{d: nil, sc: inflight})
	memoLen := bindMemo.Len()

	if victimAlive {
		t.Error("cold entry survived cap overflow; LRU eviction not engaging")
	}
	if !keeperAlive {
		t.Error("recently touched entry was evicted")
	}
	if !inflightAlive {
		t.Error("in-flight entry was evicted while resolving")
	}
	// One in-flight entry may pin the memo one past cap, no further.
	if memoLen > bindMemoCap+1 {
		t.Errorf("memo holds %d entries, cap %d", memoLen, bindMemoCap)
	}

	// A joiner on the in-flight key must share the single resolution.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cachedBind(nil, inflight, blockingInst{gate: gate, calls: &calls}, &emptyIfc)
	}()
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("in-flight binding resolved %d times, want 1", got)
	}
}

// TestBuildScheduleStepOverflowRejected pins the int32-narrowing fix in
// buildSchedule: a stimulus whose total step count exceeds the int32 stepOff
// range must fall back to the interpreted path (nil schedule) instead of
// silently wrapping row offsets. Cases share one backing step slice, so the
// 2^31-step stimulus is cheap to build, and the O(cases) pre-count rejects
// it without walking the steps. (The width guards in the same function are
// untestable without allocating multi-gigabit values.)
func TestBuildScheduleStepOverflowRejected(t *testing.T) {
	const stepsPerCase = 100000
	proto := Step{Inputs: map[string]sim.Value{"a": sim.NewKnown(2, 1), "b": sim.NewKnown(1, 0)}}
	shared := make([]Step, stepsPerCase)
	for i := range shared {
		shared[i] = proto
	}
	nCases := math.MaxInt32/stepsPerCase + 2 // total steps just past MaxInt32
	st := &Stimulus{Ifc: combIfc(), Cases: make([]Case, nCases)}
	for i := range st.Cases {
		st.Cases[i] = Case{Steps: shared}
	}
	if stepCountFitsInt32(st) {
		t.Fatal("step pre-count accepted an overflowing stimulus")
	}
	if buildSchedule(st) != nil {
		t.Fatal("buildSchedule compiled a stimulus with > MaxInt32 steps")
	}

	// Control: trimmed to a handful of cases the same shape schedules fine.
	small := &Stimulus{Ifc: combIfc(), Cases: st.Cases[:2]}
	if buildSchedule(small) == nil {
		t.Fatal("control stimulus failed to schedule")
	}
}
