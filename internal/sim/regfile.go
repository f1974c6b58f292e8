// Register-file lowering: processes become destination-passing kernels over
// the Engine's flat val/xz planes. It is the compiled lowering of every
// construct with a static width bound. Every expression node owns a
// statically sized scratch slot (a word range in the frame); evaluating a
// node runs its operand kernels and then computes the node's value in place.
// Net and constant leaves have no kernel at all — their slot IS the storage.
//
// Width rules mirror Simulator.evalCtx exactly. A node's produced width can
// vary at run time (ternaries whose branches differ in width, concats of
// such), so kernels return the produced width; the static `cap` field is a
// compile-time upper bound that sizes the slot. The slot invariant (bits at
// or above the produced width are zero) makes zero-extension free: a parent
// that needs an operand at a wider width simply reads more words.
//
// Anything without a static width bound — [a:b] part-selects with
// non-constant bounds, indexed part-selects with non-constant widths,
// replications with non-constant counts, capacities past maxRegCap — reports
// ErrUnsupported, and the whole design runs on the interpreter instead.
package sim

import (
	"fmt"

	"repro/internal/verilog/ast"
)

// rexpr is one lowered expression node.
type rexpr struct {
	run func(en *Engine) (int32, error) // nil: value already in place (leaf)
	off int32                           // word offset of the result slot
	nw  int32                           // slot size in words
	cap int32                           // static upper bound on produced width (bits)
	sw  int32                           // produced width when run == nil
	net int32                           // net index for net leaves, else -1
}

// eval runs the node (if it has a kernel) and returns the produced width.
func (e *rexpr) eval(en *Engine) (int32, error) {
	if e.run == nil {
		return e.sw, nil
	}
	return e.run(en)
}

// planes returns the node's result slot slices.
func (e *rexpr) planes(en *Engine) ([]uint64, []uint64) {
	return en.val[e.off : e.off+e.nw], en.xz[e.off : e.off+e.nw]
}

// node allocates a fresh scratch slot for a kernel with capacity cap bits.
func (c *compiler) node(cap int) (*rexpr, error) {
	if cap > maxRegCap {
		return nil, fmt.Errorf("%w: intermediate capacity %d bits", ErrUnsupported, cap)
	}
	if cap < 1 {
		cap = 1
	}
	nw := words(cap)
	return &rexpr{off: c.alloc(nw), nw: int32(nw), cap: int32(cap), net: -1}, nil
}

// leafConst interns v in the constant pool and returns a kernel-less node.
func (c *compiler) leafConst(v Value) *rexpr {
	w := v.Width()
	return &rexpr{
		off: c.allocConst(v),
		nw:  int32(words(w)),
		cap: int32(w),
		sw:  int32(w),
		net: -1,
	}
}

// constFold extends constOf to whole constant expressions (literals,
// parameters, and operators over them, e.g. the ubiquitous WIDTH-1 select
// bounds), evaluating them at compile time exactly as evalCtx would at run
// time — same width contexts, same operator semantics — so folding is
// unobservable. Anything touching a net is not foldable.
func constFold(e ast.Expr, sc *scope) (Value, bool) {
	return constFoldCtx(e, sc, 0)
}

func constFoldCtx(e ast.Expr, sc *scope, ctx int) (Value, bool) {
	switch x := e.(type) {
	case *ast.Number:
		return numberValue(x), true
	case *ast.Ident:
		v, ok := sc.params[x.Name]
		return v, ok
	case *ast.Unary:
		switch x.Op {
		case ast.UnaryPlus, ast.UnaryMinus, ast.BitNot:
			v, ok := constFoldCtx(x.X, sc, ctx)
			if !ok {
				return Value{}, false
			}
			if ctx > v.Width() {
				v = v.Resize(ctx)
			}
			return evalUnary(x.Op, v), true
		default:
			v, ok := constFoldCtx(x.X, sc, 0)
			if !ok {
				return Value{}, false
			}
			return evalUnary(x.Op, v), true
		}
	case *ast.Binary:
		switch x.Op {
		case ast.Add, ast.Sub, ast.Mul, ast.Div, ast.Mod,
			ast.BitAnd, ast.BitOr, ast.BitXor, ast.BitXnor:
			a, ok := constFoldCtx(x.X, sc, ctx)
			if !ok {
				return Value{}, false
			}
			b, ok := constFoldCtx(x.Y, sc, ctx)
			if !ok {
				return Value{}, false
			}
			w := maxInt(maxInt(a.Width(), b.Width()), ctx)
			return evalBinary(x.Op, a.Resize(w), b.Resize(w)), true
		case ast.Shl, ast.Shr, ast.AShl, ast.AShr:
			a, ok := constFoldCtx(x.X, sc, ctx)
			if !ok {
				return Value{}, false
			}
			if ctx > a.Width() {
				a = a.Resize(ctx)
			}
			b, ok := constFoldCtx(x.Y, sc, 0)
			if !ok {
				return Value{}, false
			}
			return evalBinary(x.Op, a, b), true
		case ast.LogAnd, ast.LogOr:
			a, ok := constFoldCtx(x.X, sc, 0)
			if !ok {
				return Value{}, false
			}
			truth, known := a.Bool3()
			if known {
				// Short-circuit exactly like the runtime evaluator: a
				// deciding left operand never looks at the right one.
				if x.Op == ast.LogAnd && !truth {
					return NewKnown(1, 0), true
				}
				if x.Op == ast.LogOr && truth {
					return NewKnown(1, 1), true
				}
			}
			b, ok := constFoldCtx(x.Y, sc, 0)
			if !ok {
				return Value{}, false
			}
			return evalBinary(x.Op, a, b), true
		default:
			a, ok := constFoldCtx(x.X, sc, 0)
			if !ok {
				return Value{}, false
			}
			b, ok := constFoldCtx(x.Y, sc, 0)
			if !ok {
				return Value{}, false
			}
			return evalBinary(x.Op, a, b), true
		}
	case *ast.Ternary:
		cond, ok := constFoldCtx(x.Cond, sc, 0)
		if !ok {
			return Value{}, false
		}
		truth, known := cond.Bool3()
		if known {
			if truth {
				return constFoldCtx(x.Then, sc, ctx)
			}
			return constFoldCtx(x.Else, sc, ctx)
		}
		tv, ok := constFoldCtx(x.Then, sc, ctx)
		if !ok {
			return Value{}, false
		}
		ev, ok := constFoldCtx(x.Else, sc, ctx)
		if !ok {
			return Value{}, false
		}
		return mergeTernary(tv, ev), true
	default:
		return Value{}, false
	}
}

// compileProcess lowers one process to register-file form.
func (c *compiler) compileProcess(p *process) (cproc, error) {
	if p.cont {
		rsc := p.rhsScope
		if rsc == nil {
			rsc = p.scope
		}
		run, err := c.compileRAssign(p.lhs, p.scope, p.rhs, rsc, true)
		if err != nil {
			return cproc{}, err
		}
		return cproc{run: run, cont: true}, nil
	}
	body, err := c.compileRStmt(p.body, p.scope)
	if err != nil {
		return cproc{}, err
	}
	return cproc{run: body}, nil
}

// --- Statements --------------------------------------------------------------

// rstmt is a lowered statement.
type rstmt = func(en *Engine) error

func (c *compiler) compileRStmt(st ast.Stmt, sc *scope) (rstmt, error) {
	switch x := st.(type) {
	case *ast.Block:
		subs := make([]rstmt, len(x.Stmts))
		for i, sub := range x.Stmts {
			cs, err := c.compileRStmt(sub, sc)
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
		return c.compileRAssign(x.LHS, sc, x.RHS, sc, x.Blocking)
	case *ast.If:
		cond, err := c.compileRExpr(x.Cond, sc, 0)
		if err != nil {
			return nil, err
		}
		then, err := c.compileRStmt(x.Then, sc)
		if err != nil {
			return nil, err
		}
		var els rstmt
		if x.Else != nil {
			if els, err = c.compileRStmt(x.Else, sc); err != nil {
				return nil, err
			}
		}
		return func(en *Engine) error {
			if _, err := cond.eval(en); err != nil {
				return err
			}
			cv, cx := cond.planes(en)
			truth, known := kbool3(cv, cx)
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
		return c.compileRCase(x, sc)
	case *ast.For:
		return c.compileRFor(x, sc)
	default:
		return nil, fmt.Errorf("%w: unsupported statement %T", ErrElab, st)
	}
}

type rcaseItem struct {
	isDefault bool
	labels    []*rexpr
	body      rstmt
}

func (c *compiler) compileRCase(x *ast.Case, sc *scope) (rstmt, error) {
	subj, err := c.compileRExpr(x.Subject, sc, 0)
	if err != nil {
		return nil, err
	}
	items := make([]rcaseItem, len(x.Items))
	for i, item := range x.Items {
		body, err := c.compileRStmt(item.Body, sc)
		if err != nil {
			return nil, err
		}
		ci := rcaseItem{body: body}
		if item.Labels == nil {
			ci.isDefault = true
		} else {
			ci.labels = make([]*rexpr, len(item.Labels))
			for j, lbl := range item.Labels {
				cl, err := c.compileRExpr(lbl, sc, 0)
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
		if _, err := subj.eval(en); err != nil {
			return err
		}
		sv, sx := subj.planes(en)
		deflt := -1
		for i := range items {
			if items[i].isDefault {
				deflt = i
				continue
			}
			for _, cl := range items[i].labels {
				if _, err := cl.eval(en); err != nil {
					return err
				}
				lv, lx := cl.planes(en)
				match := false
				switch kind {
				case ast.CaseZ:
					match = kcasezMatch(sv, sx, lv, lx, false)
				case ast.CaseX:
					match = kcasezMatch(sv, sx, lv, lx, true)
				default:
					match = kcaseEqual(sv, sx, lv, lx)
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

func (c *compiler) compileRFor(x *ast.For, sc *scope) (rstmt, error) {
	var initA, stepA rstmt
	var err error
	if x.Init != nil {
		// Loop init/step RHS are self-determined, as in the interpreter.
		if initA, err = c.compileRAssignCtx(x.Init.LHS, sc, x.Init.RHS, sc, true, 0); err != nil {
			return nil, err
		}
	}
	cond, err := c.compileRExpr(x.Cond, sc, 0)
	if err != nil {
		return nil, err
	}
	body, err := c.compileRStmt(x.Body, sc)
	if err != nil {
		return nil, err
	}
	if x.Step != nil {
		if stepA, err = c.compileRAssignCtx(x.Step.LHS, sc, x.Step.RHS, sc, true, 0); err != nil {
			return nil, err
		}
	}
	return func(en *Engine) error {
		if initA != nil {
			if err := initA(en); err != nil {
				return err
			}
		}
		for iter := 0; ; iter++ {
			if iter >= maxLoopIters {
				return fmt.Errorf("%w: for loop exceeded %d iterations", ErrRuntime, maxLoopIters)
			}
			if _, err := cond.eval(en); err != nil {
				return err
			}
			cv, cx := cond.planes(en)
			truth, known := kbool3(cv, cx)
			if !known || !truth {
				return nil
			}
			if err := body(en); err != nil {
				return err
			}
			if stepA != nil {
				if err := stepA(en); err != nil {
					return err
				}
			}
		}
	}, nil
}

// --- Lvalues and assignment --------------------------------------------------

// rtarget is one resolved slice of a lowered lvalue.
type rtarget struct {
	net   int32
	lo    int
	width int
	skip  bool
}

// rlval is a lowered lvalue. The total width is always static (a dynamic
// width is ErrUnsupported); only target offsets may be dynamic.
type rlval struct {
	total   int
	static  []rtarget                           // non-nil: fully static resolve
	dyn     []func(en *Engine) (rtarget, error) // else: one resolver per target, MSB-first
	netIdxs []int32                             // every net a target may touch
}

// compileRAssign lowers an assignment whose RHS context is the lvalue width.
func (c *compiler) compileRAssign(lhs ast.Expr, lsc *scope, rhs ast.Expr, rsc *scope, blocking bool) (rstmt, error) {
	lv, err := c.compileRLValue(lhs, lsc)
	if err != nil {
		return nil, err
	}
	return c.finishRAssign(lv, rhs, rsc, blocking, lv.total)
}

// compileRAssignCtx lowers an assignment with an explicit RHS context width
// (for-loop init/step use 0: self-determined).
func (c *compiler) compileRAssignCtx(lhs ast.Expr, lsc *scope, rhs ast.Expr, rsc *scope, blocking bool, ctx int) (rstmt, error) {
	lv, err := c.compileRLValue(lhs, lsc)
	if err != nil {
		return nil, err
	}
	return c.finishRAssign(lv, rhs, rsc, blocking, ctx)
}

func (c *compiler) finishRAssign(lv *rlval, rhs ast.Expr, rsc *scope, blocking bool, ctx int) (rstmt, error) {
	rx, err := c.compileRExpr(rhs, rsc, ctx)
	if err != nil {
		return nil, err
	}
	// A net-leaf RHS aliases live storage; if the lvalue can write that same
	// net at a shifted position, an in-place partial store would read bits it
	// already overwrote. Bounce through a scratch copy (rare: self-moves like
	// y[9:5] = y[4:0]). A single full-width self-assignment needs no bounce —
	// the store degenerates to a compare.
	if rx.run == nil && rx.net >= 0 && lv.mayTouch(rx.net) && !lv.isWholeNet(rx.net) {
		src := rx
		bounced, err := c.node(int(src.cap))
		if err != nil {
			return nil, err
		}
		w := src.sw
		bounced.run = func(en *Engine) (int32, error) {
			dv, dx := bounced.planes(en)
			sv, sx := src.planes(en)
			kcopy(dv, dx, sv, sx, int(w), int(bounced.nw))
			return w, nil
		}
		rx = bounced
	}
	total := lv.total
	if lv.static != nil {
		targets := lv.static
		// Fast path: one non-skipped full-width target.
		if len(targets) == 1 && !targets[0].skip && targets[0].width == total {
			t := targets[0]
			return func(en *Engine) error {
				if _, err := rx.eval(en); err != nil {
					return err
				}
				sv, sx := rx.planes(en)
				if blocking {
					en.storeNet(t.net, t.lo, sv, sx, 0, total)
				} else {
					en.queueNBA(t.net, t.lo, sv, sx, 0, total)
				}
				return nil
			}, nil
		}
		return func(en *Engine) error {
			if _, err := rx.eval(en); err != nil {
				return err
			}
			sv, sx := rx.planes(en)
			pos := total
			for _, t := range targets {
				pos -= t.width
				if t.skip {
					continue
				}
				if blocking {
					en.storeNet(t.net, t.lo, sv, sx, pos, t.width)
				} else {
					en.queueNBA(t.net, t.lo, sv, sx, pos, t.width)
				}
			}
			return nil
		}, nil
	}
	resolvers := lv.dyn
	return func(en *Engine) error {
		// Match the interpreter's order exactly: evaluate the RHS, resolve
		// EVERY target, and only then store. A blocking store interleaved
		// with resolution would be observable when an earlier concat part
		// writes a net a later part's index expression reads
		// (e.g. {i, a[i]} = x must index a with the old i).
		if _, err := rx.eval(en); err != nil {
			return err
		}
		en.targets = en.targets[:0]
		for _, res := range resolvers {
			t, err := res(en)
			if err != nil {
				return err
			}
			en.targets = append(en.targets, t)
		}
		sv, sx := rx.planes(en)
		pos := total
		for _, t := range en.targets {
			pos -= t.width
			if t.skip {
				continue
			}
			if blocking {
				en.storeNet(t.net, t.lo, sv, sx, pos, t.width)
			} else {
				en.queueNBA(t.net, t.lo, sv, sx, pos, t.width)
			}
		}
		return nil
	}, nil
}

// mayTouch reports whether the lvalue can write net idx.
func (lv *rlval) mayTouch(idx int32) bool {
	for _, n := range lv.netIdxs {
		if n == idx {
			return true
		}
	}
	return false
}

// isWholeNet reports whether the lvalue is exactly one full-width static
// write of net idx (safe to store in place even from the net itself).
func (lv *rlval) isWholeNet(idx int32) bool {
	return len(lv.static) == 1 && !lv.static[0].skip &&
		lv.static[0].net == idx && lv.static[0].lo == 0
}

// compileRLValue lowers an lvalue. Mirrors Simulator.resolveLValue but
// produces static-total-width resolvers; constructs with dynamic widths
// return ErrUnsupported.
func (c *compiler) compileRLValue(lhs ast.Expr, sc *scope) (*rlval, error) {
	switch x := lhs.(type) {
	case *ast.Ident:
		n, ok := sc.lookupNet(x.Name)
		if !ok {
			return nil, fmt.Errorf("%w: assignment to unknown net %q", ErrElab, x.Name)
		}
		idx := c.netIdx[n]
		return &rlval{
			total:   n.width,
			static:  []rtarget{{net: idx, lo: 0, width: n.width}},
			netIdxs: []int32{idx},
		}, nil
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
		if iv, isConst := constFold(x.Idx, sc); isConst {
			u, known := iv.Uint64()
			t := rtarget{skip: true, width: 1}
			if known {
				if lo := int(u) - lsb; lo >= 0 && lo < width {
					t = rtarget{net: idx, lo: lo, width: 1}
				}
			}
			return &rlval{total: 1, static: []rtarget{t}, netIdxs: []int32{idx}}, nil
		}
		cidx, err := c.compileRExpr(x.Idx, sc, 0)
		if err != nil {
			return nil, err
		}
		res := func(en *Engine) (rtarget, error) {
			if _, err := cidx.eval(en); err != nil {
				return rtarget{}, err
			}
			iv, known := kfits64(cidx.planes(en))
			if !known {
				return rtarget{skip: true, width: 1}, nil
			}
			lo := int(iv) - lsb
			if lo < 0 || lo >= width {
				return rtarget{skip: true, width: 1}, nil
			}
			return rtarget{net: idx, lo: lo, width: 1}, nil
		}
		return &rlval{total: 1, dyn: []func(en *Engine) (rtarget, error){res}, netIdxs: []int32{idx}}, nil
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
		av, aConst := constFold(x.A, sc)
		bv, bConst := constFold(x.B, sc)
		if aConst && bConst {
			lo, rw, known, err := partSelBoundsVals(x.Kind, av, bv, lsb)
			if err != nil {
				// Runtime error every evaluation, mirroring the interpreter.
				res := func(en *Engine) (rtarget, error) { return rtarget{}, err }
				return &rlval{total: 1, dyn: []func(en *Engine) (rtarget, error){res}, netIdxs: []int32{idx}}, nil
			}
			t := rtarget{skip: true, width: rw}
			if known {
				t = rtarget{net: idx, lo: lo, width: rw}
			}
			return &rlval{total: rw, static: []rtarget{t}, netIdxs: []int32{idx}}, nil
		}
		// Indexed part-selects with a constant width keep a static total;
		// anything else has a dynamic lvalue width.
		if x.Kind == ast.SelConst || !bConst {
			return nil, fmt.Errorf("%w: dynamic part-select bounds", ErrUnsupported)
		}
		wv, okw := bv.Uint64()
		if !okw || wv == 0 {
			err := fmt.Errorf("%w: indexed part-select width must be a positive constant", ErrRuntime)
			res := func(en *Engine) (rtarget, error) { return rtarget{}, err }
			return &rlval{total: 1, dyn: []func(en *Engine) (rtarget, error){res}, netIdxs: []int32{idx}}, nil
		}
		ca, err := c.compileRExpr(x.A, sc, 0)
		if err != nil {
			return nil, err
		}
		w := int(wv)
		minus := x.Kind == ast.SelMinus
		res := func(en *Engine) (rtarget, error) {
			if _, err := ca.eval(en); err != nil {
				return rtarget{}, err
			}
			baseV, known := kfits64(ca.planes(en))
			if !known {
				return rtarget{skip: true, width: w}, nil
			}
			lo := int(baseV) - lsb
			if minus {
				lo = int(baseV) - w + 1 - lsb
			}
			return rtarget{net: idx, lo: lo, width: w}, nil
		}
		return &rlval{total: w, dyn: []func(en *Engine) (rtarget, error){res}, netIdxs: []int32{idx}}, nil
	case *ast.Concat:
		out := &rlval{}
		allStatic := true
		var parts []*rlval
		for _, part := range x.Parts {
			lv, err := c.compileRLValue(part, sc)
			if err != nil {
				return nil, err
			}
			parts = append(parts, lv)
			out.total += lv.total
			out.netIdxs = append(out.netIdxs, lv.netIdxs...)
			if lv.static == nil {
				allStatic = false
			}
		}
		if allStatic {
			for _, lv := range parts {
				out.static = append(out.static, lv.static...)
			}
			return out, nil
		}
		for _, lv := range parts {
			if lv.static != nil {
				for _, t := range lv.static {
					t := t
					out.dyn = append(out.dyn, func(en *Engine) (rtarget, error) { return t, nil })
				}
			} else {
				out.dyn = append(out.dyn, lv.dyn...)
			}
		}
		out.static = nil
		return out, nil
	default:
		return nil, fmt.Errorf("%w: expression is not a valid lvalue", ErrElab)
	}
}

// storeNet writes n bits read from (sv, sx) starting at bit spos into net
// idx at bit offset lo, dropping bits outside the net (WriteBits semantics),
// and records the change for fanout dispatch. Defined on Engine in
// engine_compiled.go; declared here for reading order.

// --- Expressions -------------------------------------------------------------

// compileRExpr lowers e under static context width ctx (0 = self-determined).
func (c *compiler) compileRExpr(e ast.Expr, sc *scope, ctx int) (*rexpr, error) {
	switch x := e.(type) {
	case *ast.Ident:
		// Parameters shadow nets, as in the interpreter.
		if v, ok := sc.params[x.Name]; ok {
			return c.leafConst(v), nil
		}
		if n, ok := sc.lookupNet(x.Name); ok {
			idx := c.netIdx[n]
			cn := &c.d.nets[idx]
			return &rexpr{off: cn.off, nw: cn.nw, cap: int32(n.width), sw: int32(n.width), net: idx}, nil
		}
		return nil, fmt.Errorf("%w: unknown identifier %q", ErrElab, x.Name)
	case *ast.Number:
		return c.leafConst(numberValue(x)), nil
	case *ast.Unary:
		return c.compileRUnary(x, sc, ctx)
	case *ast.Binary:
		return c.compileRBinary(x, sc, ctx)
	case *ast.Ternary:
		return c.compileRTernary(x, sc, ctx)
	case *ast.Concat:
		return c.compileRConcat(x, sc)
	case *ast.Repl:
		return c.compileRRepl(x, sc)
	case *ast.Index:
		return c.compileRIndex(x, sc)
	case *ast.PartSel:
		return c.compileRPartSel(x, sc)
	default:
		return nil, fmt.Errorf("%w: unsupported expression %T", ErrElab, e)
	}
}

func (c *compiler) compileRUnary(x *ast.Unary, sc *scope, ctx int) (*rexpr, error) {
	op := x.Op
	switch op {
	case ast.UnaryPlus:
		// Identity: reuse the operand slot, only the width context extends.
		child, err := c.compileRExpr(x.X, sc, ctx)
		if err != nil {
			return nil, err
		}
		if child.run == nil {
			out := *child
			out.sw = max(child.sw, int32(ctx))
			out.cap = max(child.cap, int32(ctx))
			return &out, nil
		}
		out := &rexpr{off: child.off, nw: child.nw, cap: max(child.cap, int32(ctx)), net: -1}
		cw := int32(ctx)
		out.run = func(en *Engine) (int32, error) {
			w, err := child.run(en)
			if err != nil {
				return 0, err
			}
			return max(w, cw), nil
		}
		return out, nil
	case ast.UnaryMinus, ast.BitNot:
		child, err := c.compileRExpr(x.X, sc, ctx)
		if err != nil {
			return nil, err
		}
		out, err := c.node(int(max(child.cap, int32(ctx))))
		if err != nil {
			return nil, err
		}
		neg := op == ast.UnaryMinus
		cw := int32(ctx)
		out.run = func(en *Engine) (int32, error) {
			wc, err := child.eval(en)
			if err != nil {
				return 0, err
			}
			w := max(wc, cw)
			dv, dx := out.planes(en)
			sv, sx := child.planes(en)
			if neg {
				kneg(dv, dx, sv, sx, int(w), int(out.nw))
			} else {
				knot(dv, dx, sv, sx, int(w), int(out.nw))
			}
			return w, nil
		}
		return out, nil
	default:
		// Logical not and reductions: self-determined operand, 1-bit result.
		child, err := c.compileRExpr(x.X, sc, 0)
		if err != nil {
			return nil, err
		}
		out, err := c.node(1)
		if err != nil {
			return nil, err
		}
		out.run = func(en *Engine) (int32, error) {
			wc, err := child.eval(en)
			if err != nil {
				return 0, err
			}
			sv, sx := child.planes(en)
			dv, dx := out.planes(en)
			var code uint8
			switch op {
			case ast.LogicalNot:
				truth, known := kbool3(sv, sx)
				switch {
				case !known:
					code = 2
				case !truth:
					code = 1
				}
			case ast.RedAnd, ast.RedNand:
				any0, anyXZ := kredAnd(sv, sx, int(wc))
				switch {
				case any0:
					code = 0
				case anyXZ:
					code = 2
				default:
					code = 1
				}
				if op == ast.RedNand && code != 2 {
					code ^= 1
				}
			case ast.RedOr, ast.RedNor:
				any1, anyXZ := kredOr(sv, sx)
				switch {
				case any1:
					code = 1
				case anyXZ:
					code = 2
				default:
					code = 0
				}
				if op == ast.RedNor && code != 2 {
					code ^= 1
				}
			case ast.RedXor, ast.RedXnor:
				parity, anyXZ := kredXor(sv, sx)
				if anyXZ {
					code = 2
				} else {
					code = uint8(parity)
					if op == ast.RedXnor {
						code ^= 1
					}
				}
			default:
				// Unknown unary op (unreachable for parsed sources): X.
				kset1(dv, dx, int(out.nw), 2)
				return 1, nil
			}
			kset1(dv, dx, int(out.nw), code)
			return 1, nil
		}
		return out, nil
	}
}

func (c *compiler) compileRBinary(x *ast.Binary, sc *scope, ctx int) (*rexpr, error) {
	op := x.Op
	switch op {
	case ast.Add, ast.Sub, ast.Mul, ast.Div, ast.Mod,
		ast.BitAnd, ast.BitOr, ast.BitXor, ast.BitXnor:
		a, err := c.compileRExpr(x.X, sc, ctx)
		if err != nil {
			return nil, err
		}
		b, err := c.compileRExpr(x.Y, sc, ctx)
		if err != nil {
			return nil, err
		}
		cap := int(max(max(a.cap, b.cap), int32(ctx)))
		out, err := c.node(cap)
		if err != nil {
			return nil, err
		}
		var aux *rexpr
		if op == ast.Div || op == ast.Mod {
			if aux, err = c.node(cap); err != nil {
				return nil, err
			}
		}
		cw := int32(ctx)
		out.run = func(en *Engine) (int32, error) {
			wa, err := a.eval(en)
			if err != nil {
				return 0, err
			}
			wb, err := b.eval(en)
			if err != nil {
				return 0, err
			}
			w := int(max(max(wa, wb), cw))
			nw := int(out.nw)
			dv, dx := out.planes(en)
			av, ax := a.planes(en)
			bv, bx := b.planes(en)
			switch op {
			case ast.Add:
				kadd(dv, dx, av, ax, bv, bx, w, nw, false)
			case ast.Sub:
				kadd(dv, dx, av, ax, bv, bx, w, nw, true)
			case ast.Mul:
				kmul(dv, dx, av, ax, bv, bx, w, nw)
			case ast.Div, ast.Mod:
				if kanyNZ(ax) || kanyNZ(bx) || !kanyNZ(bv) {
					ksetX(dv, dx, w, nw)
					break
				}
				rv, rx := aux.planes(en)
				wn := words(w)
				if op == ast.Div {
					kdivmod(dv, rv, av, bv, w)
				} else {
					kdivmod(rv, dv, av, bv, w)
				}
				for i := 0; i < wn; i++ {
					dx[i], rx[i] = 0, 0
				}
				kfinish(dv, dx, w, nw)
			case ast.BitAnd:
				kand(dv, dx, av, ax, bv, bx, w, nw)
			case ast.BitOr:
				kor(dv, dx, av, ax, bv, bx, w, nw)
			case ast.BitXor:
				kxor(dv, dx, av, ax, bv, bx, w, nw, false)
			case ast.BitXnor:
				kxor(dv, dx, av, ax, bv, bx, w, nw, true)
			}
			return int32(w), nil
		}
		return out, nil
	case ast.Shl, ast.Shr, ast.AShl, ast.AShr:
		a, err := c.compileRExpr(x.X, sc, ctx)
		if err != nil {
			return nil, err
		}
		b, err := c.compileRExpr(x.Y, sc, 0) // shift amount is self-determined
		if err != nil {
			return nil, err
		}
		out, err := c.node(int(max(a.cap, int32(ctx))))
		if err != nil {
			return nil, err
		}
		right := op == ast.Shr || op == ast.AShr
		arith := op == ast.AShr
		cw := int32(ctx)
		out.run = func(en *Engine) (int32, error) {
			wa, err := a.eval(en)
			if err != nil {
				return 0, err
			}
			if _, err := b.eval(en); err != nil {
				return 0, err
			}
			w := int(max(wa, cw))
			nw := int(out.nw)
			dv, dx := out.planes(en)
			av, ax := a.planes(en)
			bv, bx := b.planes(en)
			amt, ok := kfits64(bv, bx)
			switch {
			case !ok:
				// X/Z or >64-bit amount: all-X, mirroring Shl/Shr/AShr.
				ksetX(dv, dx, w, nw)
			case amt >= uint64(w):
				kzero(dv, dx, nw)
				if arith && kbit(av, ax, w, w-1) == 1 {
					// AShr of a negative value saturates to all known ones.
					for i := 0; i < words(w); i++ {
						dv[i] = ^uint64(0)
					}
					kfinish(dv, dx, w, nw)
				}
			default:
				kshift(dv, dx, av, ax, w, nw, int(amt), right, arith)
			}
			return int32(w), nil
		}
		return out, nil
	case ast.LogAnd, ast.LogOr:
		a, err := c.compileRExpr(x.X, sc, 0)
		if err != nil {
			return nil, err
		}
		b, err := c.compileRExpr(x.Y, sc, 0)
		if err != nil {
			return nil, err
		}
		out, err := c.node(1)
		if err != nil {
			return nil, err
		}
		isAnd := op == ast.LogAnd
		out.run = func(en *Engine) (int32, error) {
			if _, err := a.eval(en); err != nil {
				return 0, err
			}
			dv, dx := out.planes(en)
			av, ax := a.planes(en)
			at, ak := kbool3(av, ax)
			// Short-circuit on a deciding left operand, as the interpreter's
			// compiled predecessor did.
			if ak {
				if isAnd && !at {
					kset1(dv, dx, int(out.nw), 0)
					return 1, nil
				}
				if !isAnd && at {
					kset1(dv, dx, int(out.nw), 1)
					return 1, nil
				}
			}
			if _, err := b.eval(en); err != nil {
				return 0, err
			}
			bv, bx := b.planes(en)
			bt, bk := kbool3(bv, bx)
			var code uint8
			if isAnd {
				switch {
				case (ak && !at) || (bk && !bt):
					code = 0
				case ak && bk:
					if at && bt {
						code = 1
					}
				default:
					code = 2
				}
			} else {
				switch {
				case (ak && at) || (bk && bt):
					code = 1
				case ak && bk:
					if at || bt {
						code = 1
					}
				default:
					code = 2
				}
			}
			kset1(dv, dx, int(out.nw), code)
			return 1, nil
		}
		return out, nil
	default:
		// Comparisons: operands sized to each other, result is 1 bit.
		a, err := c.compileRExpr(x.X, sc, 0)
		if err != nil {
			return nil, err
		}
		b, err := c.compileRExpr(x.Y, sc, 0)
		if err != nil {
			return nil, err
		}
		out, err := c.node(1)
		if err != nil {
			return nil, err
		}
		out.run = func(en *Engine) (int32, error) {
			if _, err := a.eval(en); err != nil {
				return 0, err
			}
			if _, err := b.eval(en); err != nil {
				return 0, err
			}
			dv, dx := out.planes(en)
			av, ax := a.planes(en)
			bv, bx := b.planes(en)
			var code uint8
			switch op {
			case ast.CaseEq, ast.CaseNeq:
				eq := kcaseEqual(av, ax, bv, bx)
				if eq == (op == ast.CaseEq) {
					code = 1
				}
			default:
				if kanyNZ(ax) || kanyNZ(bx) {
					code = 2
					break
				}
				cmp := kcmp(av, bv)
				var truth bool
				switch op {
				case ast.Eq:
					truth = cmp == 0
				case ast.Neq:
					truth = cmp != 0
				case ast.Lt:
					truth = cmp < 0
				case ast.Leq:
					truth = cmp <= 0
				case ast.Gt:
					truth = cmp > 0
				case ast.Geq:
					truth = cmp >= 0
				}
				if truth {
					code = 1
				}
			}
			kset1(dv, dx, int(out.nw), code)
			return 1, nil
		}
		return out, nil
	}
}

func (c *compiler) compileRTernary(x *ast.Ternary, sc *scope, ctx int) (*rexpr, error) {
	cond, err := c.compileRExpr(x.Cond, sc, 0)
	if err != nil {
		return nil, err
	}
	then, err := c.compileRExpr(x.Then, sc, ctx)
	if err != nil {
		return nil, err
	}
	els, err := c.compileRExpr(x.Else, sc, ctx)
	if err != nil {
		return nil, err
	}
	out, err := c.node(int(max(then.cap, els.cap)))
	if err != nil {
		return nil, err
	}
	out.run = func(en *Engine) (int32, error) {
		if _, err := cond.eval(en); err != nil {
			return 0, err
		}
		cv, cx := cond.planes(en)
		truth, known := kbool3(cv, cx)
		dv, dx := out.planes(en)
		if known {
			br := then
			if !truth {
				br = els
			}
			w, err := br.eval(en)
			if err != nil {
				return 0, err
			}
			sv, sx := br.planes(en)
			kcopy(dv, dx, sv, sx, int(w), int(out.nw))
			return w, nil
		}
		wt, err := then.eval(en)
		if err != nil {
			return 0, err
		}
		we, err := els.eval(en)
		if err != nil {
			return 0, err
		}
		w := max(wt, we)
		tv, tx := then.planes(en)
		ev, ex := els.planes(en)
		kmergeTernary(dv, dx, tv, tx, ev, ex, int(w), int(out.nw))
		return w, nil
	}
	return out, nil
}

func (c *compiler) compileRConcat(x *ast.Concat, sc *scope) (*rexpr, error) {
	parts := make([]*rexpr, len(x.Parts))
	capSum := 0
	for i, pe := range x.Parts {
		cp, err := c.compileRExpr(pe, sc, 0)
		if err != nil {
			return nil, err
		}
		parts[i] = cp
		capSum += int(cp.cap)
	}
	out, err := c.node(capSum)
	if err != nil {
		return nil, err
	}
	out.run = func(en *Engine) (int32, error) {
		// First pass: evaluate every part, pushing produced widths onto the
		// engine's width stack (concats nest, so use stack discipline).
		base := len(en.wstack)
		total := int32(0)
		for _, cp := range parts {
			w, err := cp.eval(en)
			if err != nil {
				en.wstack = en.wstack[:base]
				return 0, err
			}
			en.wstack = append(en.wstack, w)
			total += w
		}
		dv, dx := out.planes(en)
		kzero(dv, dx, int(out.nw))
		pos := total
		for i, cp := range parts {
			w := en.wstack[base+i]
			pos -= w
			sv, sx := cp.planes(en)
			kblit(dv, dx, int(pos), sv, sx, 0, int(w))
		}
		en.wstack = en.wstack[:base]
		return total, nil
	}
	return out, nil
}

func (c *compiler) compileRRepl(x *ast.Repl, sc *scope) (*rexpr, error) {
	cntV, isConst := constFold(x.Count, sc)
	if !isConst {
		return nil, fmt.Errorf("%w: non-constant replication count", ErrUnsupported)
	}
	child, err := c.compileRExpr(x.Value, sc, 0)
	if err != nil {
		return nil, err
	}
	n, ok := cntV.Uint64()
	if !ok || n > 1<<16 {
		// Mirror the interpreter's runtime error on X or oversized counts.
		rtErr := fmt.Errorf("%w: replication count must be a small constant", ErrRuntime)
		out, err := c.node(1)
		if err != nil {
			return nil, err
		}
		out.run = func(en *Engine) (int32, error) { return 0, rtErr }
		return out, nil
	}
	out, err := c.node(int(n) * int(child.cap))
	if err != nil {
		return nil, err
	}
	cnt := int(n)
	out.run = func(en *Engine) (int32, error) {
		wv, err := child.eval(en)
		if err != nil {
			return 0, err
		}
		dv, dx := out.planes(en)
		kzero(dv, dx, int(out.nw))
		sv, sx := child.planes(en)
		for i := 0; i < cnt; i++ {
			kblit(dv, dx, i*int(wv), sv, sx, 0, int(wv))
		}
		return int32(cnt) * wv, nil
	}
	return out, nil
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

func (c *compiler) compileRIndex(x *ast.Index, sc *scope) (*rexpr, error) {
	base, err := c.compileRExpr(x.X, sc, 0)
	if err != nil {
		return nil, err
	}
	lsb := exprBaseLSB(x.X, sc)
	cidx, err := c.compileRExpr(x.Idx, sc, 0)
	if err != nil {
		return nil, err
	}
	out, err := c.node(1)
	if err != nil {
		return nil, err
	}
	out.run = func(en *Engine) (int32, error) {
		wb, err := base.eval(en)
		if err != nil {
			return 0, err
		}
		if _, err := cidx.eval(en); err != nil {
			return 0, err
		}
		dv, dx := out.planes(en)
		iv, known := kfits64(cidx.planes(en))
		if !known {
			kset1(dv, dx, int(out.nw), 2)
			return 1, nil
		}
		lo := int(iv) - lsb
		if lo < 0 || lo >= int(wb) {
			// SliceBits reads out-of-range bits as X.
			kset1(dv, dx, int(out.nw), 2)
			return 1, nil
		}
		sv, sx := base.planes(en)
		kset1(dv, dx, int(out.nw), kbit(sv, sx, int(wb), lo))
		return 1, nil
	}
	return out, nil
}

func (c *compiler) compileRPartSel(x *ast.PartSel, sc *scope) (*rexpr, error) {
	base, err := c.compileRExpr(x.X, sc, 0)
	if err != nil {
		return nil, err
	}
	lsb := exprBaseLSB(x.X, sc)
	av, aConst := constFold(x.A, sc)
	bv, bConst := constFold(x.B, sc)
	if aConst && bConst {
		lo, w, known, rtErr := partSelBoundsVals(x.Kind, av, bv, lsb)
		if rtErr != nil {
			out, err := c.node(1)
			if err != nil {
				return nil, err
			}
			out.run = func(en *Engine) (int32, error) {
				if _, err := base.eval(en); err != nil {
					return 0, err
				}
				return 0, rtErr
			}
			return out, nil
		}
		out, err := c.node(w)
		if err != nil {
			return nil, err
		}
		out.run = func(en *Engine) (int32, error) {
			wb, err := base.eval(en)
			if err != nil {
				return 0, err
			}
			dv, dx := out.planes(en)
			if !known {
				ksetX(dv, dx, w, int(out.nw))
				return int32(w), nil
			}
			sv, sx := base.planes(en)
			kslice(dv, dx, w, int(out.nw), sv, sx, int(wb), lo)
			return int32(w), nil
		}
		return out, nil
	}
	// Indexed part-selects with constant width stay static-width; everything
	// else is dynamically sized.
	if x.Kind == ast.SelConst || !bConst {
		return nil, fmt.Errorf("%w: dynamic part-select bounds", ErrUnsupported)
	}
	wv, okw := bv.Uint64()
	if !okw || wv == 0 {
		rtErr := fmt.Errorf("%w: indexed part-select width must be a positive constant", ErrRuntime)
		out, err := c.node(1)
		if err != nil {
			return nil, err
		}
		out.run = func(en *Engine) (int32, error) {
			if _, err := base.eval(en); err != nil {
				return 0, err
			}
			return 0, rtErr
		}
		return out, nil
	}
	ca, err := c.compileRExpr(x.A, sc, 0)
	if err != nil {
		return nil, err
	}
	w := int(wv)
	minus := x.Kind == ast.SelMinus
	out, err := c.node(w)
	if err != nil {
		return nil, err
	}
	out.run = func(en *Engine) (int32, error) {
		wb, err := base.eval(en)
		if err != nil {
			return 0, err
		}
		if _, err := ca.eval(en); err != nil {
			return 0, err
		}
		dv, dx := out.planes(en)
		baseV, known := kfits64(ca.planes(en))
		if !known {
			ksetX(dv, dx, w, int(out.nw))
			return int32(w), nil
		}
		lo := int(baseV) - lsb
		if minus {
			lo = int(baseV) - w + 1 - lsb
		}
		sv, sx := base.planes(en)
		kslice(dv, dx, w, int(out.nw), sv, sx, int(wb), lo)
		return int32(w), nil
	}
	return out, nil
}
