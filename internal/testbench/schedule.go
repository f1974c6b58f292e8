package testbench

import (
	"math"
	"sort"

	"repro/internal/memo"
	"repro/internal/serve/faultinject"
	"repro/internal/sim"
)

// Schedule is the plane form of a Stimulus: the drive order fixed once,
// every stimulus value flattened into two word planes, and per-case step
// extents precomputed. Where the map form walks map[string]sim.Value steps —
// sorting names, hashing strings, and boxing values on every drive — the
// scheduled path is a loop over int-indexed records: zero map lookups, zero
// driveOrder allocations, zero formatting.
//
// A Schedule captures only the design-independent half of a run. The
// design-dependent half — which net each drive position and output column
// lands on — is resolved once per run into a binding (see Schedule.bind),
// because handles belong to a design, not to a stimulus.
//
// The generator writes its stimuli as Schedules directly. Hand-built
// stimuli are compiled by buildSchedule, which requires a *regular*
// stimulus: every step of every case drives the same input names at the
// same widths. Irregular ones keep the map form (Stimulus.schedule returns
// nil).
type Schedule struct {
	names    []string // drive order: sorted input names, incl. reset, excl. clock
	widths   []int32  // stimulus value width per drive position
	wordsOf  []int32  // words per drive position (words(widths[i]))
	rowWords int      // total words per step row
	stepOff  []int32  // per case: index of its first step row; len NumCases+1
	val, xz  []uint64 // flattened stimulus planes, stepOff[c]*rowWords + position offsets
}

// numCases returns the number of test cases.
func (sc *Schedule) numCases() int { return len(sc.stepOff) - 1 }

// row returns the val words of step row r.
func (sc *Schedule) row(r int) []uint64 {
	return sc.val[r*sc.rowWords : (r+1)*sc.rowWords]
}

// allocRows sizes zeroed planes for nCases cases of stepsPerCase rows each.
func (sc *Schedule) allocRows(nCases, stepsPerCase int) {
	sc.stepOff = make([]int32, nCases+1)
	for c := range sc.stepOff {
		sc.stepOff[c] = int32(c * stepsPerCase)
	}
	n := nCases * stepsPerCase * sc.rowWords
	planes := make([]uint64, 2*n)
	sc.val, sc.xz = planes[:n:n], planes[n:]
}

// swapCases exchanges the rows of cases i and j, which must have equal
// step counts (every case of a generated stimulus does).
func (sc *Schedule) swapCases(i, j int) {
	a, b := int(sc.stepOff[i])*sc.rowWords, int(sc.stepOff[j])*sc.rowWords
	n := int(sc.stepOff[i+1]-sc.stepOff[i]) * sc.rowWords
	for k := 0; k < n; k++ {
		sc.val[a+k], sc.val[b+k] = sc.val[b+k], sc.val[a+k]
		sc.xz[a+k], sc.xz[b+k] = sc.xz[b+k], sc.xz[a+k]
	}
}

// truncate keeps the first keep cases.
func (sc *Schedule) truncate(keep int) {
	sc.stepOff = sc.stepOff[:keep+1]
	n := int(sc.stepOff[keep]) * sc.rowWords
	sc.val, sc.xz = sc.val[:n], sc.xz[:n]
}

// buildSchedule compiles st into a Schedule, or returns nil when the
// stimulus is irregular (or empty of steps, where scheduling buys nothing).
func buildSchedule(st *Stimulus) *Schedule {
	var first *Step
	for ci := range st.Cases {
		if len(st.Cases[ci].Steps) > 0 {
			first = &st.Cases[ci].Steps[0]
			break
		}
	}
	if first == nil {
		return nil
	}
	names := make([]string, 0, len(first.Inputs))
	for name := range first.Inputs {
		names = append(names, name)
	}
	sort.Strings(names)

	sc := &Schedule{
		names:   names,
		widths:  make([]int32, len(names)),
		wordsOf: make([]int32, len(names)),
	}
	for i, name := range names {
		w := first.Inputs[name].Width()
		nw := first.Inputs[name].PlaneWords()
		// Guard the int32 narrowing below: a pathological stimulus width
		// must fall back to the interpreted path, not silently truncate
		// handle widths and row offsets.
		if w > math.MaxInt32 || nw > math.MaxInt32 {
			return nil
		}
		sc.widths[i] = int32(w)
		sc.wordsOf[i] = int32(nw)
		sc.rowWords += nw
		if sc.rowWords > math.MaxInt32 {
			return nil
		}
	}

	// Bail before the per-step pass if the step count cannot be indexed by
	// the int32 stepOff table: overflow would otherwise corrupt every row
	// offset past the wrap. Counting per case keeps this O(cases), so an
	// overflowing stimulus is rejected without touching its billions of
	// steps (the regularity pass below only runs on in-range stimuli).
	if !stepCountFitsInt32(st) {
		return nil
	}

	// Regularity check + step counting in one pass.
	totalSteps := 0
	sc.stepOff = make([]int32, len(st.Cases)+1)
	for ci := range st.Cases {
		sc.stepOff[ci] = int32(totalSteps)
		for si := range st.Cases[ci].Steps {
			step := &st.Cases[ci].Steps[si]
			if len(step.Inputs) != len(names) {
				return nil
			}
			for i, name := range names {
				v, ok := step.Inputs[name]
				if !ok || v.Width() != int(sc.widths[i]) {
					return nil
				}
			}
			totalSteps++
		}
	}
	sc.stepOff[len(st.Cases)] = int32(totalSteps)

	sc.val = make([]uint64, totalSteps*sc.rowWords)
	sc.xz = make([]uint64, totalSteps*sc.rowWords)
	off := 0
	for ci := range st.Cases {
		for si := range st.Cases[ci].Steps {
			step := &st.Cases[ci].Steps[si]
			for i, name := range names {
				v := step.Inputs[name]
				nw := int(sc.wordsOf[i])
				v.CopyPlanes(sc.val[off:off+nw], sc.xz[off:off+nw])
				off += nw
			}
		}
	}
	return sc
}

// stepCountFitsInt32 reports whether the stimulus's total step count is
// indexable by the schedule's int32 stepOff table.
func stepCountFitsInt32(st *Stimulus) bool {
	total := 0
	for ci := range st.Cases {
		total += len(st.Cases[ci].Steps)
		if total > math.MaxInt32 {
			return false
		}
	}
	return true
}

// schedule returns the stimulus's plane form: the generator's planes, or
// the schedule compiled from Cases at most once (the stimulus cache shares
// Stimulus values across goroutines, so the build is Once-guarded). Returns
// nil for irregular stimuli.
func (st *Stimulus) schedule() *Schedule {
	if st.planes != nil {
		return st.planes
	}
	st.schedOnce.Do(func() { st.sched = buildSchedule(st) })
	return st.sched
}

// binding resolves a Schedule's names against one design: the clock handle
// (-1 for combinational interfaces), one input handle per drive position,
// and one output handle per interface output column.
type binding struct {
	clock int
	ins   []int
	outs  []int
}

// --- Binding cache ---------------------------------------------------------
//
// On the compiled backend a binding is a pure function of (Design, Schedule)
// — both of which are process-wide cached objects that recur across every
// candidate of every variant — so bindings are memoized the same way.
// Interpreter bindings stay per-run (each run re-elaborates anyway).

type bindKey struct {
	d  *sim.Design
	sc *Schedule
}

// bindMemoCap matches the compile cache's capacity: the memo's strong
// *sim.Design keys pin designs (and their pooled engines) against the LRU's
// eviction, so the cap bounds that pinning to about one LRU's worth.
const bindMemoCap = 1024

// bindMemo is single-flight: concurrent missers share one sc.bind. A
// resolution that panics leaves no entry, so the next caller re-binds.
var bindMemo = memo.New[bindKey, boundSchedule](bindMemoCap)

// boundSchedule is one resolution's outcome.
type boundSchedule struct {
	b  binding
	ok bool
}

// cachedBind resolves (and memoizes) the binding of sc against the compiled
// design d, probing handles on inst.
func cachedBind(d *sim.Design, sc *Schedule, inst sim.Instance, ifc *Interface) (binding, bool) {
	r := bindMemo.Do(bindKey{d: d, sc: sc}, func() boundSchedule {
		faultinject.Fire(faultinject.PointBind, "")
		b, ok := sc.bind(inst, ifc)
		return boundSchedule{b, ok}
	})
	return r.b, r.ok
}

// bind resolves every handle the scheduled run needs, once. Any resolution
// failure (a candidate missing an expected port, an interface output that is
// not a top-level net) aborts the binding and the run falls back to the
// name-keyed path, which reproduces the interpreted error behavior
// byte-for-byte.
func (sc *Schedule) bind(s sim.Instance, ifc *Interface) (binding, bool) {
	b := binding{clock: -1, ins: make([]int, len(sc.names)), outs: make([]int, len(ifc.Outputs))}
	if ifc.Clock != "" {
		h, err := s.InputHandle(ifc.Clock)
		if err != nil {
			return binding{}, false
		}
		b.clock = h
	}
	for i, name := range sc.names {
		h, err := s.InputHandle(name)
		if err != nil {
			return binding{}, false
		}
		b.ins[i] = h
	}
	for i, out := range ifc.Outputs {
		h, err := s.OutputHandle(out.Name)
		if err != nil {
			return binding{}, false
		}
		b.outs[i] = h
	}
	return b, true
}

// driveStep drives one step row through the binding's input handles, in the
// schedule's fixed (sorted) order, and advances the simulation one step
// (clock tick or settle). rowOff is the word offset of the step's row.
func (sc *Schedule) driveStep(s sim.Instance, b *binding, rowOff int) error {
	off := rowOff
	for i, h := range b.ins {
		nw := int(sc.wordsOf[i])
		s.SetInputH(h, sim.ValueView(int(sc.widths[i]), sc.val[off:off+nw], sc.xz[off:off+nw]))
		off += nw
	}
	if b.clock >= 0 {
		return s.TickH(b.clock)
	}
	return s.Settle()
}

// runCaseSched is runCase on the scheduled fast path: same drives, same
// advance, same recorded bytes — with every name resolved ahead of time.
func runCaseSched(s sim.Instance, st *Stimulus, sc *Schedule, b *binding, ci int) (CaseTrace, error) {
	var ct CaseTrace
	if b.clock >= 0 {
		s.SetInputUintH(b.clock, 0)
	}
	nOuts := len(st.Ifc.Outputs)
	nSteps := int(sc.stepOff[ci+1] - sc.stepOff[ci])
	steps := make([]StepRecord, 0, nSteps)
	flat := make([]string, nSteps*nOuts)
	var scratch []byte
	row := int(sc.stepOff[ci]) * sc.rowWords
	for si := 0; si < nSteps; si++ {
		if err := sc.driveStep(s, b, row); err != nil {
			return ct, err
		}
		row += sc.rowWords
		rec := StepRecord{Outputs: flat[:nOuts:nOuts]}
		flat = flat[nOuts:]
		for i, out := range st.Ifc.Outputs {
			scratch = s.AppendOutputH(scratch[:0], b.outs[i], out.Width)
			rec.Outputs[i] = string(scratch)
		}
		steps = append(steps, rec)
	}
	ct.Steps = steps
	return ct, nil
}

// runCaseFPSched is runCaseSched for fingerprints: it folds exactly
// the bytes runCaseSched records, allocating nothing per step or output.
func runCaseFPSched(s sim.Instance, st *Stimulus, sc *Schedule, b *binding, ci int) (uint64, error) {
	if b.clock >= 0 {
		s.SetInputUintH(b.clock, 0)
	}
	h := fnvOffset64
	nSteps := int(sc.stepOff[ci+1] - sc.stepOff[ci])
	row := int(sc.stepOff[ci]) * sc.rowWords
	for si := 0; si < nSteps; si++ {
		if err := sc.driveStep(s, b, row); err != nil {
			return 0, err
		}
		row += sc.rowWords
		for i, out := range st.Ifc.Outputs {
			h = s.HashOutputH(h, b.outs[i], out.Width)
			h = fnvByte(h, '\n')
		}
	}
	return h, nil
}
