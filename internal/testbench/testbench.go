// Package testbench generates stimulus for candidate modules and captures
// simulation traces. It plays the role of CorrectBench in the paper: the
// generated testbenches only *print* outputs (they never judge them), and
// the ranking stage compares the printed traces across candidates.
//
// Two testbench grades exist:
//
//   - Ranking testbenches (Generator.Ranking) are deliberately lightweight
//     and optionally imperfect, modeling the LLM-generated testbenches the
//     paper relies on: they may under-cover edge cases, which is exactly why
//     the post-ranking refinement stage exists.
//   - Verification testbenches (Generator.Verification) are dense and are
//     used only to score a final pick against the golden design, mirroring
//     the reference testbenches of VerilogEval-Human.
package testbench

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/memo"
	"repro/internal/serve/faultinject"
	"repro/internal/sim"
	"repro/internal/verilog/ast"
	"repro/internal/xrng"
)

// ErrRun is the sentinel for stimulus execution failures.
var ErrRun = errors.New("testbench run failed")

// ErrSimPanic is the sentinel for a recovered crash while simulating one
// candidate. It marks a result that must not be memoized: unlike an ErrRun
// failure (a deterministic property of the candidate), a crash may be
// transient, so the claim is released and the next run recomputes.
var ErrSimPanic = errors.New("simulation panicked")

// PortSpec describes one port of the design under test.
type PortSpec struct {
	Name  string
	Width int
}

// Interface describes the boundary of a design under test.
type Interface struct {
	Inputs  []PortSpec
	Outputs []PortSpec
	// Clock is the clock input name for sequential designs ("" for
	// combinational).
	Clock string
	// Reset is the synchronous reset input name, if any.
	Reset string
	// ResetActiveLow marks an active-low reset.
	ResetActiveLow bool
}

// Sequential reports whether the interface has a clock.
func (ifc *Interface) Sequential() bool { return ifc.Clock != "" }

// DataInputs returns input ports excluding clock and reset.
func (ifc *Interface) DataInputs() []PortSpec {
	var out []PortSpec
	for _, in := range ifc.Inputs {
		if in.Name == ifc.Clock || in.Name == ifc.Reset {
			continue
		}
		out = append(out, in)
	}
	return out
}

// Step is one stimulus step: drive the inputs, advance (settle or clock
// tick), then record all outputs.
type Step struct {
	Inputs map[string]sim.Value
}

// driveOrder returns the input names in deterministic (sorted) order.
func (st *Step) driveOrder() []string {
	names := make([]string, 0, len(st.Inputs))
	for name := range st.Inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Case is one test case: a single vector for combinational circuits or a
// reset-plus-sequence for sequential circuits. Each case starts from a fresh
// simulator.
type Case struct {
	Steps []Step
}

// Stimulus is a full printing testbench: a set of test cases for one
// interface.
//
// A stimulus takes one of two forms. Generated stimuli hold only their
// compiled planes (Cases is nil); Case rebuilds one case's map form on
// demand. Hand-built stimuli set Cases, and their planes are compiled from
// it on first run.
type Stimulus struct {
	Ifc   Interface
	Cases []Case

	// planes is the schedule a generator wrote directly; nil for hand-built
	// stimuli. Immutable once the stimulus is returned.
	planes *Schedule

	// sched caches the Schedule compiled from Cases (built on first run;
	// Once-guarded because stimuli are shared across ranking workers).
	schedOnce sync.Once
	sched     *Schedule

	// chash caches the stimulus's persistent-store content hash ("" for
	// irregular stimuli); see (*Stimulus).contentHash in store.go.
	chashOnce sync.Once
	chash     string
}

// NumCases returns the number of test cases.
func (st *Stimulus) NumCases() int {
	if st.planes != nil {
		return st.planes.numCases()
	}
	return len(st.Cases)
}

// Case returns test case ci in map form. For a generated stimulus it is
// rebuilt from the planes on every call, so callers that exchange single
// cases (judge requests, rendered benches) pay for one case, not the whole
// stimulus.
func (st *Stimulus) Case(ci int) Case {
	sc := st.planes
	if sc == nil {
		return st.Cases[ci]
	}
	first := int(sc.stepOff[ci])
	c := Case{Steps: make([]Step, int(sc.stepOff[ci+1])-first)}
	off := first * sc.rowWords
	for si := range c.Steps {
		in := make(map[string]sim.Value, len(sc.names))
		for i, name := range sc.names {
			nw := int(sc.wordsOf[i])
			in[name] = sim.NewFromPlanes(int(sc.widths[i]), sc.val[off:off+nw], sc.xz[off:off+nw])
			off += nw
		}
		c.Steps[si].Inputs = in
	}
	return c
}

// Generator builds stimulus deterministically from a seed.
type Generator struct {
	rng *xrng.Rand

	// MaxCombVectors bounds combinational vector counts (exhaustive
	// enumeration is used when the input space is smaller).
	MaxCombVectors int
	// SeqCases and SeqSteps control sequential stimulus volume.
	SeqCases int
	SeqSteps int
	// Imperfection in [0,1) drops roughly that fraction of the cases a
	// perfect testbench would contain, modeling weak LLM-generated
	// testbenches (0 = as dense as configured).
	Imperfection float64
}

// NewGenerator returns a generator with the given seed and defaults
// resembling the lightweight testbenches of the ranking stage. Seeding is a
// single word (xrng), not math/rand's 607-word lagged-Fibonacci warmup —
// generator construction is no longer visible in the CPU profile.
func NewGenerator(seed int64) *Generator {
	return &Generator{
		rng:            xrng.New(uint64(seed)),
		MaxCombVectors: 32,
		SeqCases:       3,
		SeqSteps:       12,
	}
}

// Ranking generates the lightweight printing testbench used by the ranking
// stage.
func (g *Generator) Ranking(ifc Interface) *Stimulus {
	st := g.generate(ifc, g.MaxCombVectors, g.SeqCases, g.SeqSteps)
	if n := st.NumCases(); g.Imperfection > 0 && n > 1 {
		keep := int(float64(n) * (1 - g.Imperfection))
		if keep < 1 {
			keep = 1
		}
		if sc := st.planes; sc != nil {
			g.rng.Shuffle(n, sc.swapCases)
			sc.truncate(keep)
		} else {
			g.rng.Shuffle(n, func(i, j int) { st.Cases[i], st.Cases[j] = st.Cases[j], st.Cases[i] })
			st.Cases = st.Cases[:keep]
		}
	}
	return st
}

// Verification generates the dense testbench used only for final scoring
// against the golden design.
func (g *Generator) Verification(ifc Interface) *Stimulus {
	return g.generate(ifc, 256, 8, 48)
}

// --- Stimulus cache ----------------------------------------------------------------
//
// Stimulus generation is a pure function of (seed, generator parameters,
// interface), and the experiment drivers regenerate identical stimuli over
// and over: every pipeline variant re-derives the same ranking stimulus,
// and every fresh oracle re-derives the same dense verification stimulus.
// A generated Stimulus is immutable (runs only read it), so a process-wide
// memo is safe — the same pattern the compile cache established for
// elaboration. An entry holds only its planes, so the LRU cap bounds bytes
// too.
//
// Builds are single-flight per key: the fingerprint memo keys runs by
// *Stimulus, so two concurrent missers that each kept their own build would
// never share a memo entry.

var stimMemo = memo.New[string, *Stimulus](stimMemoCap)

const stimMemoCap = 4096

// stimKey identifies a stimulus by everything generation depends on.
func stimKey(kind string, seed int64, imperfection float64, ifc Interface) string {
	var b strings.Builder
	b.Grow(64)
	b.WriteString(kind)
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(seed, 10))
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(imperfection, 'g', -1, 64))
	b.WriteByte('|')
	b.WriteString(ifc.Clock)
	b.WriteByte('|')
	b.WriteString(ifc.Reset)
	b.WriteByte('|')
	b.WriteString(strconv.FormatBool(ifc.ResetActiveLow))
	port := func(tag byte, p PortSpec) {
		b.WriteByte('|')
		b.WriteByte(tag)
		b.WriteByte(':')
		b.WriteString(p.Name)
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(p.Width))
	}
	for _, p := range ifc.Inputs {
		port('i', p)
	}
	for _, p := range ifc.Outputs {
		port('o', p)
	}
	return b.String()
}

// RankingCached returns the default-parameter ranking stimulus for (seed,
// imperfection, ifc), generating it at most once per process. The returned
// stimulus is shared: callers must treat it as read-only.
func RankingCached(seed int64, imperfection float64, ifc Interface) *Stimulus {
	return stimMemo.Do(stimKey("rank", seed, imperfection, ifc), func() *Stimulus {
		g := NewGenerator(seed)
		g.Imperfection = imperfection
		return g.Ranking(ifc)
	})
}

// VerificationCached returns the default-parameter verification stimulus
// for (seed, ifc), generating it at most once per process. The returned
// stimulus is shared: callers must treat it as read-only.
func VerificationCached(seed int64, ifc Interface) *Stimulus {
	return stimMemo.Do(stimKey("verify", seed, 0, ifc), func() *Stimulus {
		return NewGenerator(seed).Verification(ifc)
	})
}

// generate writes every case straight into schedule planes, one drive row
// per step, drawing the RNG in the order the stimulus stream is locked to:
// case by case, step by step, data inputs in interface order.
func (g *Generator) generate(ifc Interface, maxComb, seqCases, seqSteps int) *Stimulus {
	lay := newRowLayout(ifc)
	if !ifc.Sequential() {
		return &Stimulus{Ifc: ifc, planes: g.combCases(ifc, lay, maxComb)}
	}
	seqSteps = max(seqSteps, 0)
	steps := seqSteps
	if lay.reset >= 0 {
		steps += 2
	}
	if seqCases <= 0 || steps == 0 {
		// Cases without steps have no rows to schedule.
		return &Stimulus{Ifc: ifc, Cases: make([]Case, max(seqCases, 0))}
	}
	sc := lay.sc
	sc.allocRows(seqCases, steps)
	asserted, released := uint64(1), uint64(0)
	if ifc.ResetActiveLow {
		asserted, released = 0, 1
	}
	row := 0
	for c := 0; c < seqCases; c++ {
		// Two reset cycles (data inputs zero), then the data steps. The
		// first case is a directed all-zeros / all-ones alternation so
		// basic behaviors always appear in the trace; the rest are random.
		if lay.reset >= 0 {
			sc.row(row)[lay.reset] = asserted
			sc.row(row + 1)[lay.reset] = asserted
			row += 2
		}
		for i := 0; i < seqSteps; i++ {
			r := sc.row(row)
			row++
			if lay.reset >= 0 {
				r[lay.reset] = released
			}
			for k, in := range ifc.Inputs {
				off := lay.offs[k]
				switch {
				case off < 0:
				case c != 0:
					g.fillRand(r[off:], in.Width)
				case i%2 == 1:
					fillOnes(r[off:], in.Width)
				}
			}
		}
	}
	return &Stimulus{Ifc: ifc, planes: sc}
}

// combCases enumerates the input space exhaustively when it is small enough,
// otherwise samples distinct random vectors (always including the all-zeros
// and all-ones corners). Each case is one row.
func (g *Generator) combCases(ifc Interface, lay rowLayout, maxVectors int) *Schedule {
	sc := lay.sc
	totalBits := 0
	for k, in := range ifc.Inputs {
		if lay.offs[k] >= 0 {
			totalBits += in.Width
		}
	}
	if totalBits <= 16 && 1<<uint(totalBits) <= maxVectors {
		n := 1 << uint(totalBits)
		sc.allocRows(n, 1)
		for v := 0; v < n; v++ {
			r := sc.row(v)
			shift := 0
			for k, in := range ifc.Inputs {
				if off := lay.offs[k]; off >= 0 {
					r[off] = uint64(v) >> uint(shift) & lastWordMask(in.Width)
					shift += in.Width
				}
			}
		}
		return sc
	}
	limit := max(maxVectors, 2)
	sc.allocRows(limit, 1)
	seen := newRowSet(limit)
	n := 0
	for kind := 0; kind < 2 || n < maxVectors; kind++ {
		// The all-zeros corner is the fresh row 0. Later vectors rewrite
		// every data word, so a slot a rejected duplicate used is simply
		// overwritten.
		r := sc.row(n)
		for k, in := range ifc.Inputs {
			off := lay.offs[k]
			switch {
			case off < 0 || kind == 0:
			case kind == 1:
				fillOnes(r[off:], in.Width)
			default:
				g.fillRand(r[off:], in.Width)
			}
		}
		if seen.add(sc, n) {
			n++
		}
	}
	sc.truncate(n)
	return sc
}

// rowLayout places an interface's generated drives in a schedule row: the
// data inputs plus, on sequential interfaces, a 1-bit reset, in sorted name
// order — the order Schedule drives and content-hashes. Port names are
// unique within an interface.
type rowLayout struct {
	sc    *Schedule // names, widths and row geometry; planes not yet allocated
	offs  []int     // row word offset per ifc.Inputs entry; -1 for clock and reset
	reset int       // row word offset of the reset; -1 when rows carry none
}

// newRowLayout lays out the drive row of ifc.
func newRowLayout(ifc Interface) rowLayout {
	type drive struct {
		name  string
		width int
		port  int // ifc.Inputs index; -1 for the reset
	}
	drives := make([]drive, 0, len(ifc.Inputs)+1)
	for k, p := range ifc.Inputs {
		if p.Name != ifc.Clock && p.Name != ifc.Reset {
			drives = append(drives, drive{p.Name, p.Width, k})
		}
	}
	if ifc.Sequential() && ifc.Reset != "" {
		drives = append(drives, drive{ifc.Reset, 1, -1})
	}
	slices.SortFunc(drives, func(a, b drive) int { return strings.Compare(a.name, b.name) })

	n := len(drives)
	sc := &Schedule{names: make([]string, n), widths: make([]int32, n), wordsOf: make([]int32, n)}
	lay := rowLayout{sc: sc, offs: make([]int, len(ifc.Inputs)), reset: -1}
	for k := range lay.offs {
		lay.offs[k] = -1
	}
	for i, d := range drives {
		nw := planeWords(d.width)
		sc.names[i], sc.widths[i], sc.wordsOf[i] = d.name, int32(d.width), int32(nw)
		if d.port >= 0 {
			lay.offs[d.port] = sc.rowWords
		} else {
			lay.reset = sc.rowWords
		}
		sc.rowWords += nw
	}
	return lay
}

// planeWords is the storage word count of a width-bit value (sim's layout:
// at least one word).
func planeWords(width int) int {
	if width <= 0 {
		return 1
	}
	return (width + 63) / 64
}

// lastWordMask keeps the bits of a width-bit value's top storage word.
func lastWordMask(width int) uint64 {
	if r := uint(width) & 63; r != 0 {
		return 1<<r - 1
	}
	return ^uint64(0)
}

// fillOnes writes the all-ones value of the width into dst.
func fillOnes(dst []uint64, width int) {
	n := planeWords(width)
	for i := range dst[:n] {
		dst[i] = ^uint64(0)
	}
	dst[n-1] &= lastWordMask(width)
}

// fillRand writes a random value of the width into dst, one RNG draw per
// storage word.
func (g *Generator) fillRand(dst []uint64, width int) {
	n := (width + 63) / 64
	for i := range dst[:n] {
		dst[i] = g.rng.Uint64()
	}
	if n > 0 {
		dst[n-1] &= lastWordMask(width)
	}
}

// rowSet is an open-addressed set of a schedule's rows, compared word by
// word: the combinational generator's duplicate-vector check.
type rowSet struct {
	slots []int32 // row index + 1; 0 is empty
}

func newRowSet(rows int) rowSet {
	size := 4
	for size < 2*rows {
		size <<= 1
	}
	return rowSet{slots: make([]int32, size)}
}

// add inserts row i of sc, reporting false when an equal row is present.
func (s rowSet) add(sc *Schedule, i int) bool {
	r := sc.row(i)
	h := uint64(fnvOffset64)
	for _, w := range r {
		h = (h ^ w) * fnvPrime64
	}
	h ^= h >> 32
	mask := uint64(len(s.slots) - 1)
	for p := h & mask; ; p = (p + 1) & mask {
		j := s.slots[p]
		if j == 0 {
			s.slots[p] = int32(i + 1)
			return true
		}
		if slices.Equal(sc.row(int(j)-1), r) {
			return false
		}
	}
}

// --- Trace capture -----------------------------------------------------------------

// Inline FNV-1a (64-bit), byte-identical to hash/fnv but without boxing a
// hasher per call. Every fingerprint in this package — printed-trace and
// streaming alike — is this fold over the same canonical bytes, so the two
// paths produce interchangeable values. The constants alias sim's: a digest
// routinely flows through both packages (runCaseFPSched seeds it, the
// engine's HashOutputH continues it), so there is exactly one definition.
const (
	fnvOffset64 = sim.FNVOffset64
	fnvPrime64  = sim.FNVPrime64
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

// fnvUint64 folds x as 8 little-endian bytes (how case fingerprints combine
// into a whole-run fingerprint).
func fnvUint64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x >> (8 * uint(i)) & 0xFF)) * fnvPrime64
	}
	return h
}

// errFingerprint hashes a runtime failure (same bytes as hashing the string
// "ERR:" + message).
func errFingerprint(err error) uint64 {
	return fnvString(fnvString(fnvOffset64, "ERR:"), err.Error())
}

// StepRecord holds all printed outputs after one step.
type StepRecord struct {
	Outputs []string // aligned with Interface.Outputs order
}

// CaseTrace is the printed record of one test case.
type CaseTrace struct {
	Steps []StepRecord

	// fp memoizes Fingerprint: ranking compares every pair through the
	// fingerprint, and re-hashing the strings on each comparison was the
	// dominant CPU cost of clustering. Steps must not be mutated after the
	// first Fingerprint call.
	fp   uint64
	fpOK bool
}

// Fingerprint returns a stable hash of the case's printed outputs, computed
// once and memoized.
func (ct *CaseTrace) Fingerprint() uint64 {
	if ct.fpOK {
		return ct.fp
	}
	h := fnvOffset64
	for _, s := range ct.Steps {
		for _, o := range s.Outputs {
			h = fnvString(h, o)
			h = fnvByte(h, '\n')
		}
	}
	ct.fp, ct.fpOK = h, true
	return h
}

// Trace is the full printed record of a stimulus run.
type Trace struct {
	Ifc   Interface
	Cases []CaseTrace
	// Err records a runtime failure (e.g. combinational loop); candidates
	// whose trace has Err != nil never match any other candidate.
	Err error

	// fp memoizes Fingerprint (see CaseTrace).
	fp   uint64
	fpOK bool
}

// Fingerprint hashes the entire trace, including the error state. The value
// is memoized; Cases must not be mutated after the first call.
func (t *Trace) Fingerprint() uint64 {
	if t.fpOK {
		return t.fp
	}
	var h uint64
	if t.Err != nil {
		h = errFingerprint(t.Err)
	} else {
		h = fnvOffset64
		for i := range t.Cases {
			h = fnvUint64(h, t.Cases[i].Fingerprint())
		}
	}
	t.fp, t.fpOK = h, true
	return h
}

// FP derives the fingerprint-only view of a printed trace: the exact values
// RunFingerprints would have produced for the same run, including the
// completed-case fingerprints of an errored run (both runners record the
// cases finished before the failure). Tests use it to referee the streaming
// path against printed traces.
func (t *Trace) FP() *FPTrace {
	f := &FPTrace{Ifc: t.Ifc, Err: t.Err, CaseFPs: make([]uint64, len(t.Cases))}
	for i := range t.Cases {
		f.CaseFPs[i] = t.Cases[i].Fingerprint()
	}
	return f
}

// FPTrace is the fingerprint-only record of a stimulus run: one 64-bit
// digest per test case and nothing else. It is what the ranking stage
// retains per candidate — strict behavioral agreement (the paper's ℓ_strict)
// only ever compares hashes, so the printed strings never need to exist.
// Fingerprints are FNV-1a over the exact bytes the printed trace would hash,
// so an FPTrace and a Trace of the same run agree on every value (see
// Trace.FP).
type FPTrace struct {
	Ifc Interface
	// CaseFPs holds one fingerprint per test case, aligned with the
	// stimulus cases.
	CaseFPs []uint64
	// Err records a runtime failure exactly as Trace.Err does; errored runs
	// agree only with runs failing with the same message.
	Err error

	fp   uint64
	fpOK bool
}

// NumCases returns the number of completed test cases.
func (t *FPTrace) NumCases() int { return len(t.CaseFPs) }

// Fingerprint returns the whole-run fingerprint, identical to the
// corresponding Trace.Fingerprint value (memoized).
func (t *FPTrace) Fingerprint() uint64 {
	if t.fpOK {
		return t.fp
	}
	var h uint64
	if t.Err != nil {
		h = errFingerprint(t.Err)
	} else {
		h = fnvOffset64
		for _, fp := range t.CaseFPs {
			h = fnvUint64(h, fp)
		}
	}
	t.fp, t.fpOK = h, true
	return h
}

// FPCaseAgrees reports whether two fingerprint traces agree on test case i,
// with FPTrace semantics mirroring CaseAgrees exactly.
func FPCaseAgrees(a, b *FPTrace, i int) bool {
	if a.Err != nil || b.Err != nil {
		return a.Err != nil && b.Err != nil && a.Err.Error() == b.Err.Error()
	}
	if i >= len(a.CaseFPs) || i >= len(b.CaseFPs) {
		return false
	}
	return a.CaseFPs[i] == b.CaseFPs[i]
}

// FPAgrees reports strict behavioral agreement across all test cases,
// mirroring Agrees exactly.
func FPAgrees(a, b *FPTrace) bool {
	if a.Err != nil || b.Err != nil {
		return a.Err != nil && b.Err != nil && a.Err.Error() == b.Err.Error()
	}
	if len(a.CaseFPs) != len(b.CaseFPs) {
		return false
	}
	for i := range a.CaseFPs {
		if a.CaseFPs[i] != b.CaseFPs[i] {
			return false
		}
	}
	return true
}

// CaseAgrees reports whether two traces printed identical outputs for test
// case i.
func CaseAgrees(a, b *Trace, i int) bool {
	if a.Err != nil || b.Err != nil {
		return a.Err != nil && b.Err != nil && a.Err.Error() == b.Err.Error()
	}
	if i >= len(a.Cases) || i >= len(b.Cases) {
		return false
	}
	return a.Cases[i].Fingerprint() == b.Cases[i].Fingerprint()
}

// Agrees reports strict behavioral agreement across all test cases
// (the paper's ℓ_strict(c,c') == 0).
func Agrees(a, b *Trace) bool {
	if a.Err != nil || b.Err != nil {
		return a.Err != nil && b.Err != nil && a.Err.Error() == b.Err.Error()
	}
	if len(a.Cases) != len(b.Cases) {
		return false
	}
	for i := range a.Cases {
		if a.Cases[i].Fingerprint() != b.Cases[i].Fingerprint() {
			return false
		}
	}
	return true
}

// String renders the trace the way the paper's printing testbench would:
// one line per step listing every output.
func (t *Trace) String() string {
	if t.Err != nil {
		return "SIMULATION ERROR: " + t.Err.Error() + "\n"
	}
	var b strings.Builder
	for ci, c := range t.Cases {
		fmt.Fprintf(&b, "case %d:\n", ci)
		for si, s := range c.Steps {
			fmt.Fprintf(&b, "  step %d:", si)
			for oi, out := range s.Outputs {
				name := "?"
				if oi < len(t.Ifc.Outputs) {
					name = t.Ifc.Outputs[oi].Name
				}
				fmt.Fprintf(&b, " %s=%s", name, out)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Backend selects the simulation engine used to execute a stimulus.
type Backend int

// Available backends. The zero value is the compiled engine, so every
// caller that does not ask for the interpreter gets the fast path.
const (
	// BackendCompiled flattens the design to an index-addressed netlist via
	// sim.CompileCached: elaboration and compilation are skipped entirely
	// for repeated (or canonically identical) designs, and per-case
	// instantiation is a value-snapshot copy.
	BackendCompiled Backend = iota
	// BackendInterpreter is the original AST-walking engine, the semantic
	// reference the compiled backend is tested against. The compiled
	// backend also runs on it every design sim.Compile refuses with
	// sim.ErrUnsupported.
	BackendInterpreter
)

// String names the backend for bench/CLI labels.
func (b Backend) String() string {
	if b == BackendInterpreter {
		return "interpreter"
	}
	return "compiled"
}

// Run executes the stimulus against a design with the default (compiled)
// backend and captures its trace.
func Run(src *ast.Source, top string, st *Stimulus) *Trace {
	return RunBackend(src, top, st, BackendCompiled)
}

// instSource resolves backend instances for one run. It is a plain value
// (not a pair of closures) so the per-candidate ranking loop does not
// allocate for it. The compiled backend pools engines: per-case
// instantiation is a frame memcpy, and the engine (with its warmed-up queue
// buffers) is recycled afterwards.
type instSource struct {
	src *ast.Source
	top string
	d   *sim.Design // nil selects the interpreter
	err error       // the compile error: the run fails before its first case
}

// newInstSource compiles src for the compiled backend. A design the
// register file cannot size (sim.ErrUnsupported) runs on the interpreter.
func newInstSource(src *ast.Source, top string, backend Backend) instSource {
	is := instSource{src: src, top: top}
	if backend != BackendInterpreter {
		is.d, is.err = sim.CompileCached(src, top)
		if errors.Is(is.err, sim.ErrUnsupported) {
			is.err = nil
		}
	}
	return is
}

func (is *instSource) acquire() (sim.Instance, error) {
	if is.d == nil {
		return sim.New(is.src, is.top)
	}
	return is.d.AcquireEngine(), nil
}

func (is *instSource) release(s sim.Instance) {
	if is.d == nil {
		return
	}
	if en, ok := s.(*sim.Engine); ok {
		is.d.ReleaseEngine(en)
	}
}

// caseRunner carries the per-run schedule state forEachCase threads through
// a run: the stimulus's schedule (nil for irregular stimuli) and its handle
// binding, resolved on the run's first instance and reused for every case
// (handles are stable across instances of one design on one backend). A
// failed binding — a candidate missing an expected port — leaves fast unset,
// and every case drives by name instead, reproducing the interpreted error
// behavior byte-for-byte.
type caseRunner struct {
	sched *Schedule
	bind  binding
	bound bool // prepare has run
	fast  bool // the binding resolved: cases drive through handles
}

// prepare resolves the binding on the first visited instance. Compiled
// designs hit the process-wide binding memo (one resolution per
// (design, schedule) pair ever); interpreter instances resolve per run.
func (cr *caseRunner) prepare(d *sim.Design, s sim.Instance, ifc *Interface) {
	if cr.bound {
		return
	}
	cr.bound = true
	if cr.sched == nil {
		return
	}
	if d != nil {
		cr.bind, cr.fast = cachedBind(d, cr.sched, s, ifc)
	} else {
		cr.bind, cr.fast = cr.sched.bind(s, ifc)
	}
}

// forEachCase drives the shared per-case instance lifecycle of RunBackend
// and runSolo: each sequential test case gets a fresh simulator
// instance so cases are independent; combinational interfaces reuse one
// instance across cases (deterministic for both golden and candidates, so
// comparisons stay apples-to-apples even for buggy candidates with
// accidental state). A visit that returns errStop ends the run cleanly after
// its case. Run errors are wrapped with ErrRun; a context error is returned
// bare so callers can tell cancellation from a failing candidate.
func forEachCase(ctx context.Context, is instSource, st *Stimulus, cr *caseRunner, visit func(s sim.Instance, ci int) error) error {
	if is.err != nil {
		return fmt.Errorf("%w: %v", ErrRun, is.err)
	}
	var shared sim.Instance
	var err error
	if st.Ifc.Clock == "" {
		if shared, err = is.acquire(); err != nil {
			return fmt.Errorf("%w: %v", ErrRun, err)
		}
		defer is.release(shared)
	}
	for i := 0; i < st.NumCases(); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		s := shared
		if s == nil {
			if s, err = is.acquire(); err != nil {
				return fmt.Errorf("%w: %v", ErrRun, err)
			}
		}
		cr.prepare(is.d, s, &st.Ifc)
		verr := visit(s, i)
		if s != shared {
			// Release per case so the next case recycles this engine.
			is.release(s)
		}
		if errors.Is(verr, errStop) {
			return nil
		}
		if verr != nil {
			return fmt.Errorf("%w: %v", ErrRun, verr)
		}
	}
	return nil
}

// errStop, returned by a forEachCase visit, ends the run after the visited
// case without an error.
var errStop = errors.New("testbench: stop")

// RunBackend executes the stimulus against a design on the chosen backend
// and captures its full printed trace. A runtime error is recorded in the
// trace rather than returned: a failing candidate is simply one that agrees
// with nobody.
func RunBackend(src *ast.Source, top string, st *Stimulus, backend Backend) *Trace {
	tr := &Trace{Ifc: st.Ifc, Cases: make([]CaseTrace, 0, st.NumCases())}
	cr := caseRunner{sched: st.schedule()}
	tr.Err = forEachCase(context.Background(), newInstSource(src, top, backend), st, &cr, func(s sim.Instance, ci int) error {
		var ct CaseTrace
		var err error
		if cr.fast {
			ct, err = runCaseSched(s, st, cr.sched, &cr.bind, ci)
		} else {
			ct, err = runCase(s, st, cr.sched, ci)
		}
		if err != nil {
			return err
		}
		tr.Cases = append(tr.Cases, ct)
		return nil
	})
	return tr
}

// runSolo is the unmemoized single-candidate fingerprint run: RunBackend's
// run recording only per-case fingerprints, so no StepRecord string is
// materialized on the bound path. With a golden ref, a run on the bound
// path stops after its first case whose fingerprint differs from ref's,
// keeping that case's fingerprint: a verdict-grade trace. A run that drives
// by name (an irregular stimulus, a failed binding) records its full trace,
// which decides any verdict. A panic anywhere in the run — bind or
// simulation — is recovered into the trace as an ErrSimPanic error, so one
// crashing candidate stays a per-candidate result instead of taking down its
// worker. On cancellation it returns ctx's error and no trace.
func runSolo(ctx context.Context, is instSource, st *Stimulus, ref *FPTrace) (tr *FPTrace, err error) {
	statSims.Add(1)
	tr = &FPTrace{Ifc: st.Ifc, CaseFPs: make([]uint64, 0, st.NumCases())}
	defer func() {
		if r := recover(); r != nil {
			tr.Err = fmt.Errorf("%w: %v", ErrSimPanic, r)
			err = nil
		}
	}()
	fire := faultinject.Enabled()
	var fiKey string
	if fire {
		fiKey = sim.CanonicalKey(is.src)
	}
	cr := caseRunner{sched: st.schedule()}
	ferr := forEachCase(ctx, is, st, &cr, func(s sim.Instance, ci int) error {
		if fire {
			faultinject.Fire(faultinject.PointSimCase, fiKey)
		}
		if cr.fast {
			fp, err := runCaseFPSched(s, st, cr.sched, &cr.bind, ci)
			if err != nil {
				return err
			}
			tr.CaseFPs = append(tr.CaseFPs, fp)
			if ref != nil && fp != ref.CaseFPs[ci] {
				return errStop
			}
			return nil
		}
		// The name-keyed fallback (a failed binding, an irregular stimulus)
		// records the case and hashes its printed outputs: the bytes the
		// fast path folds.
		ct, err := runCase(s, st, cr.sched, ci)
		if err != nil {
			return err
		}
		tr.CaseFPs = append(tr.CaseFPs, ct.Fingerprint())
		return nil
	})
	if ferr != nil {
		if cerr := ctx.Err(); cerr != nil && errors.Is(ferr, cerr) {
			return nil, ferr
		}
		tr.Err = ferr
	}
	return tr, nil
}

// outputAppender is the zero-boxing trace-capture fast path the compiled
// engine provides: rendering an output directly from its storage planes
// costs one allocation (the recorded string) instead of boxing a Value.
type outputAppender interface {
	AppendOutput(dst []byte, name string, width int) ([]byte, error)
}

// caseSteps returns the step count of case ci.
func caseSteps(st *Stimulus, sc *Schedule, ci int) int {
	if sc != nil {
		return int(sc.stepOff[ci+1] - sc.stepOff[ci])
	}
	return len(st.Cases[ci].Steps)
}

// driveByName drives step si of case ci by input name, in sorted name
// order: from plane views when the stimulus has a schedule (a candidate
// whose binding failed), else from the step's map (an irregular hand-built
// stimulus). The first input the instance rejects ends the drive with its
// error.
func driveByName(s sim.Instance, st *Stimulus, sc *Schedule, ci, si int) error {
	if sc == nil {
		step := &st.Cases[ci].Steps[si]
		for _, name := range step.driveOrder() {
			if err := s.SetInput(name, step.Inputs[name]); err != nil {
				return err
			}
		}
		return nil
	}
	off := (int(sc.stepOff[ci]) + si) * sc.rowWords
	for i, name := range sc.names {
		nw := int(sc.wordsOf[i])
		if err := s.SetInput(name, sim.ValueView(int(sc.widths[i]), sc.val[off:off+nw], sc.xz[off:off+nw])); err != nil {
			return err
		}
		off += nw
	}
	return nil
}

// runCase drives one test case on one instance by input name and records
// its outputs. sc is the stimulus's schedule, nil for irregular stimuli.
func runCase(s sim.Instance, st *Stimulus, sc *Schedule, ci int) (CaseTrace, error) {
	var ct CaseTrace
	if st.Ifc.Clock != "" {
		if err := s.SetInputUint(st.Ifc.Clock, 0); err != nil {
			return ct, err
		}
	}
	appender, _ := s.(outputAppender)
	nOuts := len(st.Ifc.Outputs)
	nSteps := caseSteps(st, sc, ci)
	steps := make([]StepRecord, 0, nSteps)
	flat := make([]string, nSteps*nOuts)
	var scratch []byte
	for si := 0; si < nSteps; si++ {
		if err := driveByName(s, st, sc, ci, si); err != nil {
			return ct, err
		}
		if st.Ifc.Clock != "" {
			if err := s.Tick(st.Ifc.Clock); err != nil {
				return ct, err
			}
		} else {
			if err := s.Settle(); err != nil {
				return ct, err
			}
		}
		rec := StepRecord{Outputs: flat[:nOuts:nOuts]}
		flat = flat[nOuts:]
		for i, out := range st.Ifc.Outputs {
			if appender != nil {
				var err error
				scratch, err = appender.AppendOutput(scratch[:0], out.Name, out.Width)
				if err != nil {
					return ct, err
				}
				rec.Outputs[i] = string(scratch)
				continue
			}
			v, err := s.Output(out.Name)
			if err != nil {
				return ct, err
			}
			rec.Outputs[i] = v.Resize(out.Width).String()
		}
		steps = append(steps, rec)
	}
	ct.Steps = steps
	return ct, nil
}
