package testbench

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/memo"
	"repro/internal/serve/faultinject"
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
// Verification runs are verdict-grade: a lane stops at the first case whose
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

// --- Gang runs ---------------------------------------------------------------

// gangLane is one candidate slot of a gang run: source and compiled design
// in, fingerprint trace out.
type gangLane struct {
	src *ast.Source
	d   *sim.Design
	e   *fpEntry // nil when the caller bypasses the memo (tests)
	tr  *FPTrace
}

// RunFingerprints fingerprints a batch of candidates sharing one stimulus,
// as one GangPlan; a single candidate is a batch of one. Every result equals
// the solo run of the same source — the printed trace's fingerprints, with a
// runtime failure folded into the trace rather than returned — but all
// memo-missing candidates advance in lockstep on one SoA gang (sim.SoAGang)
// through one schedule decode. Interpreter runs, compile failures, irregular
// stimuli and failed bindings run solo for the affected candidate.
//
// Compiled runs are memoized process-wide by (design content, stimulus) and
// read through the persistent store (see GangPlan): a memo or store hit
// costs no compilation. Returned traces are shared and pre-warmed; callers
// treat them as read-only.
//
// The run observes ctx between test cases and between lanes, so a cancel
// lands within one case's worth of simulation. On cancellation it returns
// ctx's error, aborting (never publishing) the memo claims of unfinished
// jobs so the next caller recomputes them to bit-identical results. A panic
// inside the lockstep walk never escapes: the crashed walk's unresolved
// lanes re-run solo, where a lane that crashes again resolves to a
// per-candidate ErrSimPanic trace and every other lane reproduces its clean
// result.
func RunFingerprints(ctx context.Context, srcs []*ast.Source, top string, st *Stimulus, backend Backend) ([]*FPTrace, error) {
	return runPlan(ctx, srcs, top, st, backend, nil)
}

// VerifyGang reports for each candidate whether it agrees with golden — a
// clean run of st — on every case: the candidate must run clean and match
// every case fingerprint. It is the verdict-only form of RunFingerprints:
// after each case the SoA gang retires every lane whose case fingerprint
// differs from the golden's, and the walk stops once no lane is live, so a
// failing candidate costs only the cases up to its first disagreement.
// Verdicts equal comparing full traces. A retired lane's prefix decides the
// verdict only against this golden, so the memo and the persistent store
// keep verdict-grade results under keys that include it.
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

// Run simulates the pending jobs among jobs as one lockstep gang. A job that
// does not compile releases its claim and runs solo, leaving no memo entry
// and no store record. Run may be called concurrently on disjoint job sets.
// On cancellation it returns ctx's error, leaving unfinished jobs claimed
// for Release.
func (p *GangPlan) Run(ctx context.Context, jobs []int) error {
	var lanes []gangLane // made on the first lane: a plan of hits allocates none
	var laneJob []int
	defer func() {
		// On every exit, a panic included, resolved lanes leave the claims
		// the plan still holds: finishLane has published or aborted them.
		for k, j := range laneJob {
			if lanes[k].tr != nil {
				p.out[j], p.owned[j] = lanes[k].tr, nil
			}
		}
	}()
	for _, j := range jobs {
		if !p.Pending(j) {
			continue
		}
		src := p.srcs[j]
		var d *sim.Design
		if p.backend != BackendInterpreter {
			var err error
			if d, err = sim.CompileCached(src, p.top); err != nil {
				// No trace to memoize: the solo run reproduces the
				// error trace, and the compile cache makes it cheap.
				d = nil
				p.owned[j].Drop()
				p.owned[j] = nil
			}
		}
		if d == nil {
			tr, err := runSolo(ctx, src, p.top, p.st, p.backend)
			if err != nil {
				return err
			}
			p.out[j] = tr
			continue
		}
		if lanes == nil {
			lanes = make([]gangLane, 0, len(jobs))
			laneJob = make([]int, 0, len(jobs))
		}
		lanes = append(lanes, gangLane{src: src, d: d, e: p.owned[j]})
		laneJob = append(laneJob, j)
	}
	if lanes == nil {
		return nil
	}
	if err := runGangLanesCtx(ctx, lanes, p.top, p.st, p.backend, p.ref); err != nil {
		return err
	}
	for k := range lanes {
		// Lanes whose entry published (clean runs and deterministic
		// errors; never ErrSimPanic aborts) flow through to the store.
		if e := lanes[k].e; e.Done() {
			storePut(ctx, e.Key(), lanes[k].tr)
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
// holds the trace, else run by Run as a gang of one, before Finish waits on
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

// finishLane resolves a lane: crash traces are returned to this job only
// (their memo claim aborts, keeping the memo clean for a retry), anything
// else — clean runs and deterministic runtime errors alike — publishes.
func finishLane(ln *gangLane, tr *FPTrace) {
	ln.tr = tr
	if ln.e == nil {
		return
	}
	if tr.Err != nil && errors.Is(tr.Err, ErrSimPanic) {
		ln.e.Abort()
	} else {
		publish(ln.e, tr)
	}
}

// runGangLanesCtx computes lanes[k].tr for every lane, publishing each
// lane's memo entry (when present) as it resolves. With a golden ref, the
// lockstep lanes stop at their first case that disagrees with it. Lanes
// that cannot join the lockstep run — no schedule, or a binding failure —
// fall back to the solo path, which reproduces the name-keyed behavior
// byte-for-byte (a full trace, which decides any verdict). The
// walk observes ctx between test cases; on cancellation it returns the
// ctx error with unresolved lanes left untouched for the caller to abort.
// A panic anywhere in the lockstep walk is confined: every unresolved lane
// re-runs solo, isolating the crash to the candidate that caused it.
func runGangLanesCtx(ctx context.Context, lanes []gangLane, top string, st *Stimulus, backend Backend, ref *FPTrace) error {
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%w: %v", errGangCrashed, r)
			}
		}()
		return runGangLockstep(ctx, lanes, top, st, backend, ref)
	}()
	if err == nil || !errors.Is(err, errGangCrashed) {
		return err // nil, or a context error the caller unwinds
	}
	// The lockstep walk crashed. Gang-vs-solo equivalence means every lane
	// untouched by the fault reproduces its result solo bit-for-bit, and
	// the faulty lane's own solo run converts the crash into its private
	// ErrSimPanic trace (runSolo recovers per candidate).
	for k := range lanes {
		if lanes[k].tr != nil {
			continue
		}
		tr, serr := runSolo(ctx, lanes[k].src, top, st, backend)
		if serr != nil {
			return serr
		}
		finishLane(&lanes[k], tr)
	}
	return nil
}

// errGangCrashed marks a recovered panic inside the lockstep gang walk; it
// never leaves runGangLanesCtx.
var errGangCrashed = errors.New("gang walk crashed")

// runGangLockstep is the lockstep walk proper: bind every lane, then drive
// all lanes through the shared schedule case by case. With a golden ref, a
// lane retires (error-free) at the end of its first case whose fingerprint
// differs from ref's, leaving a trace that stops at that case.
func runGangLockstep(ctx context.Context, lanes []gangLane, top string, st *Stimulus, backend Backend, ref *FPTrace) error {
	sched := st.schedule()
	g := sim.NewSoAGang(len(lanes))
	gangOf := make([]int, 0, len(lanes)) // gang lane id -> lanes index
	seq := st.Ifc.Sequential()
	for li := range lanes {
		ln := &lanes[li]
		if sched == nil {
			tr, err := runSolo(ctx, ln.src, top, st, backend)
			if err != nil {
				return err
			}
			finishLane(ln, tr)
			continue
		}
		en := ln.d.AcquireEngine()
		b, ok := cachedBind(ln.d, sched, en, &st.Ifc)
		if !ok {
			ln.d.ReleaseEngine(en)
			tr, err := runSolo(ctx, ln.src, top, st, backend)
			if err != nil {
				return err
			}
			finishLane(ln, tr)
			continue
		}
		if seq {
			// Sequential cases each start from reset (BeginCase); the probe
			// engine only served handle resolution.
			ln.d.ReleaseEngine(en)
			en = nil
		}
		g.AddLane(ln.d, en, b.clock, b.ins, b.outs)
		gangOf = append(gangOf, li)
		statSims.Add(1) // one fingerprint simulation per gang lane
	}
	if len(gangOf) == 0 {
		return nil
	}

	// Fault-injection keys are derived only while a drill is armed: the
	// canonical hash identifies a lane's candidate across gang and solo
	// runs, so a drill can target one candidate deterministically.
	var fiKeys []string
	if faultinject.Enabled() {
		fiKeys = make([]string, len(gangOf))
		for k, li := range gangOf {
			fiKeys[k] = sim.CanonicalKey(lanes[li].src)
		}
	}

	// One backing block for every lane's per-case fingerprints: the lane
	// count and case count are both fixed here, so n+1 small slices flatten
	// to two allocations.
	nCases := st.NumCases()
	caseFPs := make([][]uint64, len(gangOf))
	fpBlock := make([]uint64, len(gangOf)*nCases)
	for k := range caseFPs {
		caseFPs[k] = fpBlock[k*nCases : k*nCases : (k+1)*nCases]
	}
	var retired []bool
	if ref != nil {
		retired = make([]bool, len(gangOf))
	}
	for ci := 0; ci < nCases; ci++ {
		// The per-case check bounds how long a cancel can go unobserved:
		// one case, tens of steps.
		if err := ctx.Err(); err != nil {
			return err
		}
		if g.LiveLanes() == 0 {
			break
		}
		if fiKeys != nil {
			for k := range gangOf {
				if g.Err(k) == nil {
					faultinject.Fire(faultinject.PointSimCase, fiKeys[k])
				}
			}
		}
		g.BeginCase()
		nSteps := int(sched.stepOff[ci+1] - sched.stepOff[ci])
		off := int(sched.stepOff[ci]) * sched.rowWords
		for si := 0; si < nSteps; si++ {
			// Decode the step row once; broadcast each value to all lanes.
			for pos := range sched.names {
				nw := int(sched.wordsOf[pos])
				g.Drive(pos, sim.ValueView(int(sched.widths[pos]), sched.val[off:off+nw], sched.xz[off:off+nw]))
				off += nw
			}
			g.Advance()
			for oi := range st.Ifc.Outputs {
				g.HashOutput(oi, st.Ifc.Outputs[oi].Width)
			}
		}
		// Gang lane ids are assigned in AddLane order, so id == k. A lane
		// records the case fingerprint only if it survived the whole case,
		// exactly like the solo per-case append. The divergence check runs
		// here, once per case: a mirror reads its leader's hash, so leader
		// and mirrors retire together.
		for k := range gangOf {
			if g.Err(k) != nil || (retired != nil && retired[k]) {
				continue
			}
			fp := g.Hash(k)
			caseFPs[k] = append(caseFPs[k], fp)
			if ref != nil && fp != ref.CaseFPs[ci] {
				retired[k] = true
				g.Retire(k)
			}
		}
	}
	for k, li := range gangOf {
		ln := &lanes[li]
		tr := &FPTrace{Ifc: st.Ifc, CaseFPs: caseFPs[k]}
		if err := g.Err(k); err != nil {
			tr.Err = fmt.Errorf("%w: %v", ErrRun, err)
		}
		finishLane(ln, tr)
	}
	// Close only after the last Err/Hash read: a closed gang recycles its
	// lane tables and scratch through the gang pool.
	g.Close()
	return nil
}
