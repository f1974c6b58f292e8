// Compiled simulation backend: Compile flattens an elaborated design into an
// index-addressed netlist whose entire mutable state lives in two flat
// per-Engine []uint64 planes (val/xz). Every net owns a contiguous word range
// in the planes, and every intermediate expression of every process owns a
// scratch word range assigned at compile time, so compiled processes are
// destination-passing kernels that read operand slots and write their result
// slot in place: steady-state evaluation performs zero heap allocations.
// Boxed Values survive only at the API boundary (SetInput/Output) and in the
// boxed fallback path below. A Design is immutable and safe for concurrent
// use; each concurrent evaluation gets its own cheap Engine (pooled via
// AcquireEngine/ReleaseEngine).
//
// Every process is lowered once, by one of two strategies sharing this
// file's Design:
//
//   - The register-file path (regfile.go) statically sizes every slot. It
//     handles every construct whose result width has a compile-time bound —
//     in practice all real designs.
//   - The boxed path below lowers processes the register-file path cannot
//     bound statically: part-selects with non-constant [a:b] bounds or
//     non-constant indexed widths, replications with non-constant counts,
//     and pathologically wide intermediates. It evaluates immutable Values
//     exactly like the interpreter and converts to/from the flat planes at
//     net accesses.
//
// The resulting closures are the only compiled form: every Engine runs them
// over its own frame.
//
// Both compilers deliberately mirror the interpreter (eval.go) construct by
// construct — width contexts, X-propagation, part-select bounds, event
// semantics — and the backends are held together by differential tests
// (random_expr_test.go, kernel_width_test.go) rather than trust. One
// intended difference: the interpreter reports unknown identifiers and
// unsupported constructs lazily at first execution, while Compile rejects
// them up front.
package sim

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/verilog/ast"
)

// maxRegCap bounds the static bit capacity of a register-file slot. A node
// whose width bound exceeds it (e.g. nested replications) drops the whole
// process to the boxed path rather than reserving absurd frame space.
const maxRegCap = 1 << 16

// errNoRegfile is the internal signal that a process cannot be lowered to
// the register-file form and should fall back to the boxed compiler. It is
// never returned to callers.
var errNoRegfile = errors.New("regfile: dynamic width")

// cnet is one compiled net slot (static metadata; values live in the
// Engine's planes at [off, off+nw)).
type cnet struct {
	name  string
	width int
	lsb   int
	off   int32 // word offset in the frame
	nw    int32 // words(width)
}

// cproc is one compiled process: a closure over frame offsets.
type cproc struct {
	run  func(en *Engine) error
	cont bool
}

// cedgeSub is an edge-sensitive subscription of a process to a net.
type cedgeSub struct {
	proc int32
	edge ast.EdgeKind
}

// Design is a compiled, elaborated design. It is immutable after Compile and
// safe for concurrent use: all mutable simulation state lives in Engines.
type Design struct {
	top        string
	nets       []cnet
	stateWords int32 // words holding net state (prefix of the frame)
	frameWords int32 // total frame size: state + constant pool + scratch
	// initVal/initXZ are the frame snapshot after initial blocks + first
	// settle: net state, then compile-time constants, then zeroed scratch.
	initVal []uint64
	initXZ  []uint64

	procs    []cproc
	levelFan [][]int32
	edgeFan  [][]cedgeSub
	inputs   []PortInfo
	outputs  []PortInfo
	topIdx   map[string]int32 // top-scope local name -> net index
	inputIdx map[string]int32 // top-level input port name -> net index

	boxedProcs int // processes lowered via the boxed fallback (observability)

	pool sync.Pool // recycled Engines (AcquireEngine/ReleaseEngine)
}

// Top returns the top module name the design was compiled for.
func (d *Design) Top() string { return d.top }

// InputHandle resolves a top-level input port name to a handle usable with
// the Engine's handle-bound stimulus methods (SetInputH, SetInputUintH,
// TickH). Resolution costs one map lookup; handles are valid for every
// Engine of this Design, so the testbench resolves each name once per
// (design, stimulus) pair instead of once per drive. Non-input names fail
// with ErrNotInput, exactly like SetInput.
func (d *Design) InputHandle(name string) (int, error) {
	idx, ok := d.inputIdx[name]
	if !ok {
		return -1, fmt.Errorf("%w: %q", ErrNotInput, name)
	}
	return int(idx), nil
}

// OutputHandle resolves a top-level net name (usually an output port) to a
// handle usable with the Engine's handle-bound observation methods
// (HashOutputH, AppendOutputH, OutputH). Unknown names fail with
// ErrUnknownNet, exactly like Output.
func (d *Design) OutputHandle(name string) (int, error) {
	idx, ok := d.topIdx[name]
	if !ok {
		return -1, fmt.Errorf("%w: %q", ErrUnknownNet, name)
	}
	return int(idx), nil
}

// NumNets returns the number of flattened nets.
func (d *Design) NumNets() int { return len(d.nets) }

// FrameWords returns the per-Engine state size in 64-bit words (net state,
// constant pool, and expression scratch).
func (d *Design) FrameWords() int { return int(d.frameWords) }

// BoxedProcs returns how many processes could not be lowered to the
// zero-allocation register-file form and use the boxed fallback.
func (d *Design) BoxedProcs() int { return d.boxedProcs }

// Compile elaborates src with the given top module and compiles it. The
// initial state (initial blocks executed, combinational logic settled) is
// computed once here; NewEngine then only copies the frame snapshot.
func Compile(src *ast.Source, top string) (*Design, error) {
	s, err := New(src, top)
	if err != nil {
		return nil, err
	}
	return compileFrom(s, false)
}

// compiler carries the cross-references needed while lowering processes.
type compiler struct {
	netIdx     map[*net]int32
	d          *Design
	frameWords int32
	consts     []constPatch
	forceBoxed bool
}

type constPatch struct {
	off int32
	v   Value
}

// alloc reserves nwords words of frame space and returns their offset.
func (c *compiler) alloc(nwords int) int32 {
	off := c.frameWords
	c.frameWords += int32(nwords)
	return off
}

// allocConst interns a constant Value in the frame's constant pool.
func (c *compiler) allocConst(v Value) int32 {
	off := c.alloc(words(v.Width()))
	c.consts = append(c.consts, constPatch{off: off, v: v})
	return off
}

func compileFrom(s *Simulator, forceBoxed bool) (*Design, error) {
	d := &Design{
		top:     s.topName,
		inputs:  append([]PortInfo(nil), s.inputs...),
		outputs: append([]PortInfo(nil), s.outputs...),
		topIdx:  make(map[string]int32, len(s.topScope.nets)),
	}
	c := &compiler{
		netIdx:     make(map[*net]int32, len(s.nets)),
		d:          d,
		forceBoxed: forceBoxed,
	}
	d.nets = make([]cnet, len(s.nets))
	for i, n := range s.nets {
		c.netIdx[n] = int32(i)
		nw := int32(words(n.width))
		d.nets[i] = cnet{name: n.name, width: n.width, lsb: n.lsb, off: c.alloc(int(nw)), nw: nw}
	}
	d.stateWords = c.frameWords
	for name, n := range s.topScope.nets {
		d.topIdx[name] = c.netIdx[n]
	}
	d.inputIdx = make(map[string]int32, len(d.inputs))
	for _, in := range d.inputs {
		if idx, ok := d.topIdx[in.Name]; ok {
			d.inputIdx[in.Name] = idx
		}
	}

	// Initial-only processes ran during New and never re-trigger, so they are
	// dropped; everything else is lowered in registration order.
	procID := make(map[*process]int32, len(s.procs))
	for _, p := range s.procs {
		if p.initialOnly {
			continue
		}
		cp, err := c.compileProcess(p)
		if err != nil {
			return nil, err
		}
		procID[p] = int32(len(d.procs))
		d.procs = append(d.procs, cp)
	}

	d.levelFan = make([][]int32, len(s.nets))
	d.edgeFan = make([][]cedgeSub, len(s.nets))
	for i, n := range s.nets {
		for _, p := range n.levelFanout {
			if id, ok := procID[p]; ok {
				d.levelFan[i] = append(d.levelFan[i], id)
			}
		}
		for _, sub := range n.edgeFanout {
			if id, ok := procID[sub.proc]; ok {
				d.edgeFan[i] = append(d.edgeFan[i], cedgeSub{proc: id, edge: sub.edge})
			}
		}
	}

	// Assemble the frame snapshot: net state from the settled simulator,
	// then interned constants, then zeroed scratch.
	d.frameWords = c.frameWords
	d.initVal = make([]uint64, d.frameWords)
	d.initXZ = make([]uint64, d.frameWords)
	for i, n := range s.nets {
		cn := &d.nets[i]
		copy(d.initVal[cn.off:cn.off+cn.nw], n.value.val)
		copy(d.initXZ[cn.off:cn.off+cn.nw], n.value.xz)
	}
	for _, cp := range c.consts {
		copy(d.initVal[cp.off:], cp.v.val)
		copy(d.initXZ[cp.off:], cp.v.xz)
	}
	return d, nil
}

// compileProcess lowers one process, preferring the register-file form and
// falling back to the boxed compiler for dynamically sized constructs. A
// failed register-file attempt rolls back the scratch/constant allocations
// it made before hitting the unsupported construct, so the fallback leaves
// no dead words in every Engine's frame.
func (c *compiler) compileProcess(p *process) (cproc, error) {
	if !c.forceBoxed {
		frameMark, constMark := c.frameWords, len(c.consts)
		cp, err := c.compileProcessRegfile(p)
		if err == nil {
			return cp, nil
		}
		if !errors.Is(err, errNoRegfile) {
			return cproc{}, err
		}
		c.frameWords, c.consts = frameMark, c.consts[:constMark]
	}
	c.d.boxedProcs++
	return c.compileProcessBoxed(p)
}

// --- Boxed fallback path (PR-1 semantics over flat storage) ------------------

func (c *compiler) compileProcessBoxed(p *process) (cproc, error) {
	if p.cont {
		rsc := p.rhsScope
		if rsc == nil {
			rsc = p.scope
		}
		lv, err := c.compileLValue(p.lhs, p.scope)
		if err != nil {
			return cproc{}, err
		}
		rhs, err := c.compileExpr(p.rhs, rsc)
		if err != nil {
			return cproc{}, err
		}
		run := func(en *Engine) error {
			w, err := lv.width(en)
			if err != nil {
				return err
			}
			v, err := rhs(en, w)
			if err != nil {
				return err
			}
			return en.assignLV(lv, v, true)
		}
		return cproc{run: run, cont: true}, nil
	}
	body, err := c.compileStmt(p.body, p.scope)
	if err != nil {
		return cproc{}, err
	}
	return cproc{run: body}, nil
}

// --- Statement lowering ------------------------------------------------------

// cstmt is a compiled statement.
type cstmt func(en *Engine) error

func (c *compiler) compileStmt(st ast.Stmt, sc *scope) (cstmt, error) {
	switch x := st.(type) {
	case *ast.Block:
		subs := make([]cstmt, len(x.Stmts))
		for i, sub := range x.Stmts {
			cs, err := c.compileStmt(sub, sc)
			if err != nil {
				return nil, err
			}
			subs[i] = cs
		}
		return func(en *Engine) error {
			for _, cs := range subs {
				if err := cs(en); err != nil {
					return err
				}
			}
			return nil
		}, nil
	case *ast.AssignStmt:
		lv, err := c.compileLValue(x.LHS, sc)
		if err != nil {
			return nil, err
		}
		rhs, err := c.compileExpr(x.RHS, sc)
		if err != nil {
			return nil, err
		}
		blocking := x.Blocking
		return func(en *Engine) error {
			w, err := lv.width(en)
			if err != nil {
				return err
			}
			v, err := rhs(en, w)
			if err != nil {
				return err
			}
			return en.assignLV(lv, v, blocking)
		}, nil
	case *ast.If:
		cond, err := c.compileExpr(x.Cond, sc)
		if err != nil {
			return nil, err
		}
		then, err := c.compileStmt(x.Then, sc)
		if err != nil {
			return nil, err
		}
		var els cstmt
		if x.Else != nil {
			if els, err = c.compileStmt(x.Else, sc); err != nil {
				return nil, err
			}
		}
		return func(en *Engine) error {
			cv, err := cond(en, 0)
			if err != nil {
				return err
			}
			truth, known := cv.Bool3()
			if known && truth {
				return then(en)
			}
			// Known-false and unknown both take the else branch, matching
			// the interpreter (Icarus treats X as false).
			if els != nil {
				return els(en)
			}
			return nil
		}, nil
	case *ast.Case:
		return c.compileCase(x, sc)
	case *ast.For:
		return c.compileFor(x, sc)
	default:
		return nil, fmt.Errorf("%w: unsupported statement %T", ErrElab, st)
	}
}

type ccaseItem struct {
	isDefault bool
	labels    []cexpr
	body      cstmt
}

func (c *compiler) compileCase(x *ast.Case, sc *scope) (cstmt, error) {
	subj, err := c.compileExpr(x.Subject, sc)
	if err != nil {
		return nil, err
	}
	items := make([]ccaseItem, len(x.Items))
	for i, item := range x.Items {
		body, err := c.compileStmt(item.Body, sc)
		if err != nil {
			return nil, err
		}
		ci := ccaseItem{body: body}
		if item.Labels == nil {
			ci.isDefault = true
		} else {
			ci.labels = make([]cexpr, len(item.Labels))
			for j, lbl := range item.Labels {
				cl, err := c.compileExpr(lbl, sc)
				if err != nil {
					return nil, err
				}
				ci.labels[j] = cl
			}
		}
		items[i] = ci
	}
	kind := x.Kind
	return func(en *Engine) error {
		sv, err := subj(en, 0)
		if err != nil {
			return err
		}
		deflt := -1
		for i := range items {
			if items[i].isDefault {
				deflt = i
				continue
			}
			for _, cl := range items[i].labels {
				lv, err := cl(en, 0)
				if err != nil {
					return err
				}
				match := false
				switch kind {
				case ast.CaseZ:
					match = CasezMatch(sv, lv, false)
				case ast.CaseX:
					match = CasezMatch(sv, lv, true)
				default:
					w := maxInt(sv.Width(), lv.Width())
					match = sv.Resize(w).Equal(lv.Resize(w))
				}
				if match {
					return items[i].body(en)
				}
			}
		}
		if deflt >= 0 {
			return items[deflt].body(en)
		}
		return nil
	}, nil
}

func (c *compiler) compileFor(x *ast.For, sc *scope) (cstmt, error) {
	var initLV, stepLV *clval
	var initRHS, stepRHS cexpr
	var err error
	if x.Init != nil {
		if initLV, err = c.compileLValue(x.Init.LHS, sc); err != nil {
			return nil, err
		}
		if initRHS, err = c.compileExpr(x.Init.RHS, sc); err != nil {
			return nil, err
		}
	}
	cond, err := c.compileExpr(x.Cond, sc)
	if err != nil {
		return nil, err
	}
	body, err := c.compileStmt(x.Body, sc)
	if err != nil {
		return nil, err
	}
	if x.Step != nil {
		if stepLV, err = c.compileLValue(x.Step.LHS, sc); err != nil {
			return nil, err
		}
		if stepRHS, err = c.compileExpr(x.Step.RHS, sc); err != nil {
			return nil, err
		}
	}
	return func(en *Engine) error {
		if initLV != nil {
			// Loop init/step RHS are self-determined, as in the interpreter.
			v, err := initRHS(en, 0)
			if err != nil {
				return err
			}
			if err := en.assignLV(initLV, v, true); err != nil {
				return err
			}
		}
		for iter := 0; ; iter++ {
			if iter >= maxLoopIters {
				return fmt.Errorf("%w: for loop exceeded %d iterations", ErrRuntime, maxLoopIters)
			}
			cv, err := cond(en, 0)
			if err != nil {
				return err
			}
			truth, known := cv.Bool3()
			if !known || !truth {
				return nil
			}
			if err := body(en); err != nil {
				return err
			}
			if stepLV != nil {
				v, err := stepRHS(en, 0)
				if err != nil {
					return err
				}
				if err := en.assignLV(stepLV, v, true); err != nil {
					return err
				}
			}
		}
	}, nil
}

// --- Lvalue lowering ---------------------------------------------------------

// ctarget is one resolved slice of a compiled lvalue.
type ctarget struct {
	idx   int32
	lo    int
	width int
	skip  bool
}

// clval is a compiled lvalue: width mirrors Simulator.lvalueWidth, resolve
// mirrors Simulator.resolveLValue.
type clval struct {
	width   func(en *Engine) (int, error)
	resolve func(en *Engine) ([]ctarget, int, error)
}

func constWidth(w int) func(en *Engine) (int, error) {
	return func(en *Engine) (int, error) { return w, nil }
}

func staticResolve(targets []ctarget, total int) func(en *Engine) ([]ctarget, int, error) {
	return func(en *Engine) ([]ctarget, int, error) { return targets, total, nil }
}

func (c *compiler) compileLValue(lhs ast.Expr, sc *scope) (*clval, error) {
	switch x := lhs.(type) {
	case *ast.Ident:
		n, ok := sc.lookupNet(x.Name)
		if !ok {
			return nil, fmt.Errorf("%w: assignment to unknown net %q", ErrElab, x.Name)
		}
		idx := c.netIdx[n]
		targets := []ctarget{{idx: idx, lo: 0, width: n.width}}
		return &clval{width: constWidth(n.width), resolve: staticResolve(targets, n.width)}, nil
	case *ast.Index:
		base, ok := x.X.(*ast.Ident)
		if !ok {
			return nil, fmt.Errorf("%w: nested lvalue selects are not supported", ErrElab)
		}
		n, ok2 := sc.lookupNet(base.Name)
		if !ok2 {
			return nil, fmt.Errorf("%w: assignment to unknown net %q", ErrElab, base.Name)
		}
		idx, lsb, width := c.netIdx[n], n.lsb, n.width
		if iv, isConst := constOf(x.Idx, sc); isConst {
			// Constant bit index: resolve the slot once at compile time.
			u, known := iv.Uint64()
			lo := 0
			skip := true
			if known {
				lo = int(u) - lsb
				skip = lo < 0 || lo >= width
			}
			t := ctarget{skip: true, width: 1}
			if !skip {
				t = ctarget{idx: idx, lo: lo, width: 1}
			}
			return &clval{width: constWidth(1), resolve: staticResolve([]ctarget{t}, 1)}, nil
		}
		cidx, err := c.compileExpr(x.Idx, sc)
		if err != nil {
			return nil, err
		}
		return &clval{
			width: constWidth(1),
			resolve: func(en *Engine) ([]ctarget, int, error) {
				idxv, err := cidx(en, 0)
				if err != nil {
					return nil, 0, err
				}
				iv, known := idxv.Uint64()
				if !known {
					return []ctarget{{skip: true, width: 1}}, 1, nil
				}
				lo := int(iv) - lsb
				if lo < 0 || lo >= width {
					return []ctarget{{skip: true, width: 1}}, 1, nil
				}
				return []ctarget{{idx: idx, lo: lo, width: 1}}, 1, nil
			},
		}, nil
	case *ast.PartSel:
		base, ok := x.X.(*ast.Ident)
		if !ok {
			return nil, fmt.Errorf("%w: nested lvalue selects are not supported", ErrElab)
		}
		n, ok2 := sc.lookupNet(base.Name)
		if !ok2 {
			return nil, fmt.Errorf("%w: assignment to unknown net %q", ErrElab, base.Name)
		}
		idx, lsb := c.netIdx[n], n.lsb
		av, aConst := constOf(x.A, sc)
		bv, bConst := constOf(x.B, sc)
		if aConst && bConst {
			// Constant bounds (the overwhelmingly common case): both the
			// width estimate and the slice resolve once at compile time.
			w := partSelLvalueWidthVals(x.Kind, av, bv)
			lo, rw, known, err := partSelBoundsVals(x.Kind, av, bv, lsb)
			lv := &clval{width: constWidth(w)}
			if err != nil {
				lv.resolve = func(en *Engine) ([]ctarget, int, error) { return nil, 0, err }
			} else if !known {
				lv.resolve = staticResolve([]ctarget{{skip: true, width: rw}}, rw)
			} else {
				lv.resolve = staticResolve([]ctarget{{idx: idx, lo: lo, width: rw}}, rw)
			}
			return lv, nil
		}
		ca, err := c.compileExpr(x.A, sc)
		if err != nil {
			return nil, err
		}
		cb, err := c.compileExpr(x.B, sc)
		if err != nil {
			return nil, err
		}
		kind := x.Kind
		return &clval{
			width: func(en *Engine) (int, error) {
				av, errA := ca(en, 0)
				bv, errB := cb(en, 0)
				if errA != nil || errB != nil {
					return 1, nil
				}
				return partSelLvalueWidthVals(kind, av, bv), nil
			},
			resolve: func(en *Engine) ([]ctarget, int, error) {
				av, err := ca(en, 0)
				if err != nil {
					return nil, 0, err
				}
				bv, err := cb(en, 0)
				if err != nil {
					return nil, 0, err
				}
				lo, w, known, err := partSelBoundsVals(kind, av, bv, lsb)
				if err != nil {
					return nil, 0, err
				}
				if !known {
					return []ctarget{{skip: true, width: w}}, w, nil
				}
				return []ctarget{{idx: idx, lo: lo, width: w}}, w, nil
			},
		}, nil
	case *ast.Concat:
		parts := make([]*clval, len(x.Parts))
		for i, part := range x.Parts {
			lv, err := c.compileLValue(part, sc)
			if err != nil {
				return nil, err
			}
			parts[i] = lv
		}
		return &clval{
			width: func(en *Engine) (int, error) {
				total := 0
				for _, lv := range parts {
					w, err := lv.width(en)
					if err != nil {
						return 0, err
					}
					total += w
				}
				return total, nil
			},
			resolve: func(en *Engine) ([]ctarget, int, error) {
				var all []ctarget
				total := 0
				for _, lv := range parts {
					ts, w, err := lv.resolve(en)
					if err != nil {
						return nil, 0, err
					}
					all = append(all, ts...)
					total += w
				}
				return all, total, nil
			},
		}, nil
	default:
		return nil, fmt.Errorf("%w: expression is not a valid lvalue", ErrElab)
	}
}

// --- Expression lowering -----------------------------------------------------

// cexpr is a compiled expression evaluated under an assignment context width
// (0 = self-determined), mirroring Simulator.evalCtx.
type cexpr func(en *Engine, ctx int) (Value, error)

// constOf recognizes elaboration-time constants (literals and parameters)
// whose self-determined value is context-independent.
func constOf(e ast.Expr, sc *scope) (Value, bool) {
	switch x := e.(type) {
	case *ast.Number:
		return numberValue(x), true
	case *ast.Ident:
		if v, ok := sc.params[x.Name]; ok {
			return v, true
		}
	}
	return Value{}, false
}

func constExpr(v Value) cexpr {
	return func(en *Engine, ctx int) (Value, error) { return v, nil }
}

func (c *compiler) compileExpr(e ast.Expr, sc *scope) (cexpr, error) {
	switch x := e.(type) {
	case *ast.Ident:
		// Parameters shadow nets, as in the interpreter.
		if v, ok := sc.params[x.Name]; ok {
			return constExpr(v), nil
		}
		if n, ok := sc.lookupNet(x.Name); ok {
			idx := c.netIdx[n]
			return func(en *Engine, ctx int) (Value, error) { return en.netValue(idx), nil }, nil
		}
		return nil, fmt.Errorf("%w: unknown identifier %q", ErrElab, x.Name)
	case *ast.Number:
		return constExpr(numberValue(x)), nil
	case *ast.Unary:
		cx, err := c.compileExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		op := x.Op
		switch op {
		case ast.UnaryPlus, ast.UnaryMinus, ast.BitNot:
			return func(en *Engine, ctx int) (Value, error) {
				v, err := cx(en, ctx)
				if err != nil {
					return Value{}, err
				}
				if ctx > v.Width() {
					v = v.Resize(ctx)
				}
				return evalUnary(op, v), nil
			}, nil
		default:
			// Logical not and reductions are self-determined, 1-bit results.
			return func(en *Engine, ctx int) (Value, error) {
				v, err := cx(en, 0)
				if err != nil {
					return Value{}, err
				}
				return evalUnary(op, v), nil
			}, nil
		}
	case *ast.Binary:
		return c.compileBinary(x, sc)
	case *ast.Ternary:
		cond, err := c.compileExpr(x.Cond, sc)
		if err != nil {
			return nil, err
		}
		then, err := c.compileExpr(x.Then, sc)
		if err != nil {
			return nil, err
		}
		els, err := c.compileExpr(x.Else, sc)
		if err != nil {
			return nil, err
		}
		return func(en *Engine, ctx int) (Value, error) {
			cv, err := cond(en, 0)
			if err != nil {
				return Value{}, err
			}
			truth, known := cv.Bool3()
			if known {
				if truth {
					return then(en, ctx)
				}
				return els(en, ctx)
			}
			tv, err := then(en, ctx)
			if err != nil {
				return Value{}, err
			}
			ev, err := els(en, ctx)
			if err != nil {
				return Value{}, err
			}
			return mergeTernary(tv, ev), nil
		}, nil
	case *ast.Concat:
		parts := make([]cexpr, len(x.Parts))
		for i, pe := range x.Parts {
			cp, err := c.compileExpr(pe, sc)
			if err != nil {
				return nil, err
			}
			parts[i] = cp
		}
		return func(en *Engine, ctx int) (Value, error) {
			vals := make([]Value, len(parts))
			for i, cp := range parts {
				v, err := cp(en, 0)
				if err != nil {
					return Value{}, err
				}
				vals[i] = v
			}
			return ConcatVals(vals), nil
		}, nil
	case *ast.Repl:
		cnt, err := c.compileExpr(x.Count, sc)
		if err != nil {
			return nil, err
		}
		cv, err := c.compileExpr(x.Value, sc)
		if err != nil {
			return nil, err
		}
		return func(en *Engine, ctx int) (Value, error) {
			cntV, err := cnt(en, 0)
			if err != nil {
				return Value{}, err
			}
			n, ok := cntV.Uint64()
			if !ok || n > 1<<16 {
				return Value{}, fmt.Errorf("%w: replication count must be a small constant", ErrRuntime)
			}
			v, err := cv(en, 0)
			if err != nil {
				return Value{}, err
			}
			return ReplVal(int(n), v), nil
		}, nil
	case *ast.Index:
		cx, err := c.compileExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		lsb := exprBaseLSB(x.X, sc)
		cidx, err := c.compileExpr(x.Idx, sc)
		if err != nil {
			return nil, err
		}
		return func(en *Engine, ctx int) (Value, error) {
			base, err := cx(en, 0)
			if err != nil {
				return Value{}, err
			}
			idxV, err := cidx(en, 0)
			if err != nil {
				return Value{}, err
			}
			iv, known := idxV.Uint64()
			if !known {
				return NewX(1), nil
			}
			return base.SliceBits(int(iv)-lsb, 1), nil
		}, nil
	case *ast.PartSel:
		cx, err := c.compileExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		lsb := exprBaseLSB(x.X, sc)
		ca, err := c.compileExpr(x.A, sc)
		if err != nil {
			return nil, err
		}
		cb, err := c.compileExpr(x.B, sc)
		if err != nil {
			return nil, err
		}
		kind := x.Kind
		return func(en *Engine, ctx int) (Value, error) {
			base, err := cx(en, 0)
			if err != nil {
				return Value{}, err
			}
			av, err := ca(en, 0)
			if err != nil {
				return Value{}, err
			}
			bv, err := cb(en, 0)
			if err != nil {
				return Value{}, err
			}
			lo, w, known, err := partSelBoundsVals(kind, av, bv, lsb)
			if err != nil {
				return Value{}, err
			}
			if !known {
				return NewX(w), nil
			}
			return base.SliceBits(lo, w), nil
		}, nil
	default:
		return nil, fmt.Errorf("%w: unsupported expression %T", ErrElab, e)
	}
}

// exprBaseLSB resolves the declared LSB of a select's base expression, which
// only identifiers that name nets carry (everything else reads from bit 0).
func exprBaseLSB(e ast.Expr, sc *scope) int {
	if id, ok := e.(*ast.Ident); ok {
		if n, ok2 := sc.lookupNet(id.Name); ok2 {
			return n.lsb
		}
	}
	return 0
}

func (c *compiler) compileBinary(x *ast.Binary, sc *scope) (cexpr, error) {
	cx, err := c.compileExpr(x.X, sc)
	if err != nil {
		return nil, err
	}
	cy, err := c.compileExpr(x.Y, sc)
	if err != nil {
		return nil, err
	}
	op := x.Op
	switch op {
	case ast.Add, ast.Sub, ast.Mul, ast.Div, ast.Mod,
		ast.BitAnd, ast.BitOr, ast.BitXor, ast.BitXnor:
		return func(en *Engine, ctx int) (Value, error) {
			a, err := cx(en, ctx)
			if err != nil {
				return Value{}, err
			}
			b, err := cy(en, ctx)
			if err != nil {
				return Value{}, err
			}
			w := maxInt(maxInt(a.Width(), b.Width()), ctx)
			return evalBinary(op, a.Resize(w), b.Resize(w)), nil
		}, nil
	case ast.Shl, ast.Shr, ast.AShl, ast.AShr:
		return func(en *Engine, ctx int) (Value, error) {
			a, err := cx(en, ctx)
			if err != nil {
				return Value{}, err
			}
			if ctx > a.Width() {
				a = a.Resize(ctx)
			}
			b, err := cy(en, 0) // shift amount is self-determined
			if err != nil {
				return Value{}, err
			}
			return evalBinary(op, a, b), nil
		}, nil
	case ast.LogAnd, ast.LogOr:
		return func(en *Engine, ctx int) (Value, error) {
			a, err := cx(en, 0)
			if err != nil {
				return Value{}, err
			}
			truth, known := a.Bool3()
			if known {
				if op == ast.LogAnd && !truth {
					return NewKnown(1, 0), nil
				}
				if op == ast.LogOr && truth {
					return NewKnown(1, 1), nil
				}
			}
			b, err := cy(en, 0)
			if err != nil {
				return Value{}, err
			}
			return evalBinary(op, a, b), nil
		}, nil
	default:
		// Comparisons: operands sized to each other, result is 1 bit.
		return func(en *Engine, ctx int) (Value, error) {
			a, err := cx(en, 0)
			if err != nil {
				return Value{}, err
			}
			b, err := cy(en, 0)
			if err != nil {
				return Value{}, err
			}
			return evalBinary(op, a, b), nil
		}, nil
	}
}
