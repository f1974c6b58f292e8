package testbench

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/memo"
	"repro/internal/sim"
	"repro/internal/verilog/ast"
)

// --- Fingerprint memo --------------------------------------------------------
//
// A compiled fingerprint run is a pure function of (design content,
// Stimulus): the design fixes behavior, the stimulus fixes drives, and
// FPTrace records nothing else. The memo keys the design by behaviour — the
// candidate's DesignKey and top module — so a lookup needs no compiled
// design: memo and store hits are answered before the candidate is
// compiled, an entry outlives the compile-cache eviction of its design, and
// cosmetic variants (renamed internal nets, re-based literals, swapped
// commutative operands) share one entry. FPTrace hashes only output ports,
// so a variant's trace is its representative's. Identical pairs recur
// constantly — the same candidate ranked under three pipeline variants,
// verified against the same dense stimulus across runs, re-simulated per
// bench iteration. The memo is a memo.Cache: single-flight, so concurrent
// plans never duplicate a run, and LRU-bounded with in-flight entries
// pinned. GangPlan is the only code that claims, publishes, aborts and
// stores its entries.
//
// Verification runs are verdict-grade: a run stops at the first case whose
// fingerprint differs from the golden's, so its trace is a prefix that
// decides the verdict only against that golden. Such entries carry the
// golden in their key (ref); full-trace entries have ref == nil.

type fpKey struct {
	design string // DesignKey of the candidate source
	top    string
	st     *Stimulus
	ref    *FPTrace // golden a verdict-grade run is cut against; nil: full trace
}

// memoKey is the memo key of src's run under st (ref as in fpKey).
func memoKey(src *ast.Source, top string, st *Stimulus, ref *FPTrace) fpKey {
	return fpKey{design: DesignKey(src, top, &st.Ifc), top: top, st: st, ref: ref}
}

// DesignKey is the key under which src's runs against ifc are memoized,
// stored and deduplicated: its sim.NormalKey when its top module declares
// every interface input, clock and reset as an input port and every
// interface output as an output port, else its sim.CanonicalKey. The normal
// form renames non-port nets, but a testbench resolves an interface name
// that is not a port against every top-level net, so such a candidate's
// trace depends on its exact spelling.
func DesignKey(src *ast.Source, top string, ifc *Interface) string {
	if bindsPorts(src.FindModule(top), ifc) {
		return sim.NormalKey(src)
	}
	return sim.CanonicalKey(src)
}

// bindsPorts reports whether m declares every name of ifc as a port of the
// interface's direction.
func bindsPorts(m *ast.Module, ifc *Interface) bool {
	if m == nil {
		return false
	}
	has := func(name string, dir ast.Dir) bool {
		p := m.PortByName(name)
		return p != nil && p.Dir == dir
	}
	for _, in := range ifc.Inputs {
		if !has(in.Name, ast.Input) {
			return false
		}
	}
	for _, out := range ifc.Outputs {
		if !has(out.Name, ast.Output) {
			return false
		}
	}
	return (ifc.Clock == "" || has(ifc.Clock, ast.Input)) && (ifc.Reset == "" || has(ifc.Reset, ast.Input))
}

// fpEntry is one fingerprint memo slot (see memo.Entry for its claim,
// publish, abort and drop protocol). Published traces are pre-warmed and
// read-only.
type fpEntry = memo.Entry[fpKey, *FPTrace]

// DefaultFPMemoCap is the memory tier's default entry bound. A
// verification-grade FPTrace is a few hundred uint64s, so the memo tops
// out around a few megabytes. Its keys are content hashes, so it pins no
// compiled design.
const DefaultFPMemoCap = 4096

// fpMemo is the memory tier, sized by SetFPMemoCap.
var fpMemo = memo.New[fpKey, *FPTrace](DefaultFPMemoCap)

// SetFPMemoCap sizes the in-process fingerprint memo — tier 1 of the
// result store — and returns the previous capacity. Values <= 0 restore
// DefaultFPMemoCap. Shrinking evicts finished entries down to the new cap
// immediately (in-flight runs stay pinned, exactly like normal eviction).
func SetFPMemoCap(n int) int {
	if n <= 0 {
		n = DefaultFPMemoCap
	}
	return int(fpMemo.SetLimit(int64(n)))
}

// FPMemoLen reports the memo's current entry count (ops introspection).
func FPMemoLen() int { return fpMemo.Len() }

// publish warms tr's whole-run fingerprint, after which the shared trace is
// read-only, and publishes it under e.
func publish(e *fpEntry, tr *FPTrace) {
	tr.Fingerprint()
	e.Publish(tr)
}

// --- Batch runs --------------------------------------------------------------

// RunFingerprints fingerprints a batch of candidates sharing one stimulus,
// as one GangPlan; a single candidate is a batch of one. Every result equals
// the candidate's solo run — the printed trace's fingerprints, with a
// runtime failure folded into the trace rather than returned — and each
// memo-missing candidate simulates once, on its own engine.
//
// Compiled runs are memoized process-wide by (design content, stimulus) and
// read through the persistent store (see GangPlan): a memo or store hit
// costs no compilation. Returned traces are shared and pre-warmed; callers
// treat them as read-only.
//
// The run observes ctx between test cases, so a cancel lands within one
// case's worth of simulation. On cancellation it returns ctx's error,
// aborting (never publishing) the memo claims of unfinished jobs so the next
// caller recomputes them to bit-identical results. A panic while simulating
// a candidate never escapes: it resolves to that candidate's ErrSimPanic
// trace, whose memo claim is aborted rather than published.
func RunFingerprints(ctx context.Context, srcs []*ast.Source, top string, st *Stimulus, backend Backend) ([]*FPTrace, error) {
	return runPlan(ctx, srcs, top, st, backend, nil)
}

// VerifyGang reports for each candidate whether it agrees with golden — a
// clean run of st — on every case: the candidate must run clean and match
// every case fingerprint. It is the verdict-only form of RunFingerprints: a
// candidate's run stops after its first case whose fingerprint differs from
// the golden's, so a failing candidate costs only the cases up to its first
// disagreement. Verdicts equal comparing full traces. A cut trace decides
// the verdict only against this golden, so the memo and the persistent
// store keep verdict-grade results under keys that include it.
func VerifyGang(ctx context.Context, srcs []*ast.Source, top string, st *Stimulus, backend Backend, golden *FPTrace) ([]bool, error) {
	if golden.Err != nil || len(golden.CaseFPs) != st.NumCases() {
		return nil, fmt.Errorf("testbench: verify: golden is not a clean run of the stimulus (err %v, %d of %d cases)",
			golden.Err, len(golden.CaseFPs), st.NumCases())
	}
	trs, err := runPlan(ctx, srcs, top, st, backend, golden)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(trs))
	for i, tr := range trs {
		out[i] = tr.Err == nil && FPAgrees(tr, golden)
	}
	return out, nil
}

// runPlan runs the batch with full traces (ref == nil) or verdict-grade
// traces cut against the golden ref, as one GangPlan.
func runPlan(ctx context.Context, srcs []*ast.Source, top string, st *Stimulus, backend Backend, ref *FPTrace) ([]*FPTrace, error) {
	p := planGang(ctx, srcs, top, st, backend, ref)
	defer p.Release()
	all := make([]int, len(srcs))
	for j := range all {
		all[j] = j
	}
	if err := p.Run(ctx, all); err != nil {
		return nil, err
	}
	return p.Finish(ctx)
}

// GangPlan is a fingerprint batch split, before any candidate compiles, into
// the jobs the memo and the persistent store already answer and the jobs
// that still have to be simulated. PlanGang claims each job's memo entry: a
// published entry or a store hit resolves the job on the spot, a job whose
// entry another caller is computing is left for Finish, and every other job
// stays claimed by the plan until Run simulates it. So a job's store record
// is read once per plan, and only the jobs Run simulates are compiled.
//
// Run never waits on a claim, and Finish waits only while the plan holds
// none: every claim the plan took is published or released by then, and a
// claim Finish adopts is run before it waits again. So two plans that each
// need a claim the other holds cannot deadlock. Release frees the claims of
// jobs that never ran (cancellation, errors); call it when done with the
// plan.
type GangPlan struct {
	srcs    []*ast.Source
	top     string
	st      *Stimulus
	backend Backend
	ref     *FPTrace

	out   []*FPTrace // resolved traces, aligned with srcs
	owned []*fpEntry // claims the plan holds for jobs it has yet to run
	wait  []*fpEntry // entries in flight under another caller or an earlier job
}

// PlanGang plans srcs' full-trace fingerprint runs under st (see GangPlan).
// Interpreter runs bypass the memo and the store: every job is pending.
func PlanGang(ctx context.Context, srcs []*ast.Source, top string, st *Stimulus, backend Backend) *GangPlan {
	return planGang(ctx, srcs, top, st, backend, nil)
}

func planGang(ctx context.Context, srcs []*ast.Source, top string, st *Stimulus, backend Backend, ref *FPTrace) *GangPlan {
	n := len(srcs)
	claims := make([]*fpEntry, 2*n) // owned, then wait: one allocation
	p := &GangPlan{
		srcs: srcs, top: top, st: st, backend: backend, ref: ref,
		out:   make([]*FPTrace, n),
		owned: claims[:n:n],
		wait:  claims[n:],
	}
	if backend == BackendInterpreter {
		return p
	}
	for j, src := range srcs {
		e, owner := fpMemo.Acquire(memoKey(src, top, st, ref))
		switch {
		case owner:
			if p.out[j] = lookupClaimed(ctx, e); p.out[j] == nil {
				p.owned[j] = e
			}
		case e.Done():
			p.out[j] = e.Value()
		default:
			// In flight elsewhere, or a duplicate of an earlier job of this
			// plan: collected by Finish, after this plan's own runs.
			p.wait[j] = e
		}
	}
	return p
}

// lookupClaimed answers a claimed entry from the tiers below the memo and
// publishes the answer, or returns nil: the persistent store, then — for a
// verdict-grade key — a full trace already published under the plain key,
// which decides any verdict (the golden's own run, for one, answers every
// candidate that compiles to it). Such a trace is stored under the verdict
// key too, so a store-backed rerun finds it whatever its memo still holds.
func lookupClaimed(ctx context.Context, e *fpEntry) *FPTrace {
	key := e.Key()
	tr := storeLookup(ctx, key)
	if tr == nil && key.ref != nil {
		plain := key
		plain.ref = nil
		if tr, _ = fpMemo.Peek(plain); tr != nil {
			storePut(ctx, key, tr)
		}
	}
	if tr != nil {
		publish(e, tr)
	}
	return tr
}

// Pending reports whether job j is still the plan's to simulate.
func (p *GangPlan) Pending(j int) bool { return p.out[j] == nil && p.wait[j] == nil }

// Run simulates the pending jobs among jobs, one after another, each on its
// own engine (runSolo) and, for a verdict-grade plan, cut against its
// golden. A finished run publishes its claim and reaches the store,
// except a crash: an ErrSimPanic trace aborts the claim, so the next caller
// simulates afresh. A job that does not compile drops its claim, leaving no
// memo entry and no store record; a job the register file cannot size runs
// on the interpreter and is published like any other. Run may be called
// concurrently on disjoint job sets. On cancellation it returns ctx's error,
// leaving unfinished jobs claimed for Release.
func (p *GangPlan) Run(ctx context.Context, jobs []int) error {
	for _, j := range jobs {
		if !p.Pending(j) {
			continue
		}
		is := newInstSource(p.srcs[j], p.top, p.backend)
		if is.err != nil && p.owned[j] != nil {
			// No trace to memoize: the run reproduces the compile error.
			p.owned[j].Drop()
			p.owned[j] = nil
		}
		tr, err := runSolo(ctx, is, p.st, p.ref)
		if err != nil {
			return err
		}
		e := p.owned[j]
		p.out[j], p.owned[j] = tr, nil
		switch {
		case e == nil:
		case errors.Is(tr.Err, ErrSimPanic):
			e.Abort()
		default:
			// Clean runs and deterministic runtime errors alike.
			publish(e, tr)
			storePut(ctx, e.Key(), tr)
		}
	}
	return nil
}

// Fail resolves the pending jobs among jobs to an error trace carrying err
// and releases their claims: the caller's last line against a panic that
// escaped Run or struck before it.
func (p *GangPlan) Fail(jobs []int, err error) {
	for _, j := range jobs {
		if !p.Pending(j) {
			continue
		}
		if e := p.owned[j]; e != nil {
			e.Abort()
			p.owned[j] = nil
		}
		p.out[j] = &FPTrace{Ifc: p.st.Ifc, Err: err}
	}
}

// Finish collects the jobs left to other callers and returns every job's
// trace, aligned with srcs. Call it after Run has covered every job. A job
// whose owner released its claim is adopted: answered from the store when it
// holds the trace, else run by Run, before Finish waits on
// the next entry — so the plan never waits while it holds a claim, and two
// plans that adopt each other's aborted claims cannot deadlock.
func (p *GangPlan) Finish(ctx context.Context) ([]*FPTrace, error) {
	for j, e := range p.wait {
		if e == nil {
			continue
		}
		tr, adopted, err := e.Wait(ctx)
		if err != nil {
			return nil, err
		}
		p.wait[j] = nil
		if !adopted {
			p.out[j] = tr
			continue
		}
		if p.out[j] = lookupClaimed(ctx, e); p.out[j] == nil {
			p.owned[j] = e
			if err := p.Run(ctx, []int{j}); err != nil {
				return nil, err
			}
		}
	}
	return p.out, nil
}

// Release frees the claims of jobs the plan never ran. It is idempotent, and
// a no-op once every job has run.
func (p *GangPlan) Release() {
	for j, e := range p.owned {
		if e != nil {
			e.Abort()
			p.owned[j] = nil
		}
	}
}
