// Gang register-file lowering: one shared program drives every lane of a
// struct-of-arrays gang (soa.go). The lowering mirrors regfile.go construct
// by construct, but each node's kernel walk happens ONCE per activation and
// applies to all participating lanes in a tight per-lane inner loop, so the
// rexpr tree-walk, dispatch, and bounds checks are amortized across the gang
// instead of being paid per engine.
//
// Addressing: a gang run owns one shared val plane and one shared xz plane,
// partitioned lane-major with a fixed stride. The first frameWords of each
// lane's block alias that lane's Engine frame (net state + the lane design's
// own scratch/constants), so every existing per-engine mechanism — storeNet
// change records, NBA arena, fanout dispatch, reset, HashOutputH, and the
// solo closures of non-shared processes — works unchanged on the shared
// planes. Gang scratch and gang constants live past the largest lane frame
// (ext region); a node's absolute slot for lane l is
//
//	l*stride + off            (net leaves: frame-relative, layout-identical
//	                           across lanes by the gangLayoutSig guard)
//	l*stride + extBase + off  (gang scratch/constants: ext-relative)
//
// Error discipline: the only runtime-erroring constructs regfile.go lowers
// are compile-time-determined (replication with an X/oversized count,
// part-selects with constant-bad bounds, indexed part-selects with a bad
// width). Gang lowering BAILS on those processes — they keep per-lane solo
// execution, which is always available — so gang expressions are total and
// pure. The one remaining runtime error, the for-loop iteration cap, is
// handled per lane: the lane records its error and drops out of every mask
// while the surviving lanes keep running. Purity also means evaluating an
// expression for a lane that doesn't need it is invisible, which keeps mask
// bookkeeping out of expressions entirely; only statements (if/case/for) and
// short-circuiting operators partition the lane mask, using a preallocated
// arena sized at compile time so the warm path stays allocation-free.
package sim

import (
	"fmt"

	"repro/internal/verilog/ast"
)

// gangProg is the lane-count-independent shared program for one Design.
// Compiled lazily, once, by Design.gangProgram.
type gangProg struct {
	extWords  int32        // per-lane gang scratch+constant words past the lane frame
	nwids     int32        // dynamic produced-width slots (per lane at run time)
	maskSlots int32        // worst-case concurrently outstanding lane masks
	consts    []constPatch // ext-relative; copied into every lane's ext region
	procs     []gproc      // aligned with Design.procs; run == nil: no gang form
}

type gproc struct {
	run  gstmt
	cont bool
}

// gstmt executes one lowered statement for every lane in m.
type gstmt func(g *gangRun, m []int32)

// gexpr is one lowered expression node of the shared program.
type gexpr struct {
	run     func(g *gangRun, m []int32) // nil: value already in place (leaf)
	off     int32                       // lane-relative word offset of the slot
	inFrame bool                        // frame-relative (net leaf) vs ext-relative
	nw      int32                       // slot size in words
	cap     int32                       // static upper bound on produced width
	sw      int32                       // produced width when wid < 0 (static)
	wid     int32                       // per-lane produced-width slot, -1 if static
	net     int32                       // net index for net leaves, else -1
}

func (e *gexpr) eval(g *gangRun, m []int32) {
	if e.run != nil {
		e.run(g, m)
	}
}

// width returns the node's produced width for lane l.
func (e *gexpr) width(g *gangRun, l int32) int32 {
	if e.wid < 0 {
		return e.sw
	}
	return g.wids[int(e.wid)*int(g.lanes)+int(l)]
}

func (e *gexpr) setWidth(g *gangRun, l int32, w int32) {
	g.wids[int(e.wid)*int(g.lanes)+int(l)] = w
}

// gangRun is the shared execution state of one SoA gang (built in soa.go).
type gangRun struct {
	lanes   int32 // lane slots (fixed at seal; retirement only shrinks masks)
	stride  int32 // words per lane block in the shared planes
	extBase int32 // lane-relative start of the gang ext region
	val, xz []uint64
	engines []*Engine // aliasing engines: engines[l] frames the lane's block
	wids    []int32   // nwids * lanes per-lane produced widths
	arena   []int32   // lane-mask arena; capacity fixed at seal, never grows
	laneErr []error   // terminal per-lane error (loop cap, no-converge, solo)

	// anyFailed gates the cheap per-lane liveness checks at effect sites
	// (stores, for-loop continuation). It is reset by the gang once failed
	// lanes have been retired out of the live set.
	anyFailed bool
}

// planesAt returns node e's slot slices for lane l.
func (g *gangRun) planesAt(e *gexpr, l int32) ([]uint64, []uint64) {
	off := l*g.stride + e.off
	if !e.inFrame {
		off += g.extBase
	}
	return g.val[off : off+e.nw], g.xz[off : off+e.nw]
}

// --- Lane-mask arena ---------------------------------------------------------

func (g *gangRun) mark() int      { return len(g.arena) }
func (g *gangRun) restore(mk int) { g.arena = g.arena[:mk] }

// maskCopy reserves an arena region holding a copy of m. The region stays
// valid (no reallocation) because the arena's capacity covers the program's
// static worst-case mask depth.
func (g *gangRun) maskCopy(m []int32) []int32 {
	base := len(g.arena)
	g.arena = append(g.arena, m...)
	return g.arena[base:len(g.arena):len(g.arena)]
}

// failLane records lane l's terminal error (first error wins, matching the
// solo engine where the first error aborts the run).
func (g *gangRun) failLane(l int32, err error) {
	if g.laneErr[l] == nil {
		g.laneErr[l] = err
		g.anyFailed = true
	}
}

// filterLive drops failed lanes from m in place. Only safe on frame-owned
// masks (a for-loop's own L) — never on a caller's mask.
func (g *gangRun) filterLive(m []int32) []int32 {
	k := 0
	for _, l := range m {
		if g.laneErr[l] == nil {
			m[k] = l
			k++
		}
	}
	return m[:k]
}

// --- Gang program compilation ------------------------------------------------

// gangProgram lazily lowers the design's processes into the shared gang
// program. Safe for concurrent use. Processes that cannot take the gang form
// (boxed fallback, or constructs carrying a baked runtime error) get a nil
// run and keep per-lane execution.
func (d *Design) gangProgram() *gangProg {
	d.gangOnce.Do(func() {
		c := &gcompiler{d: d, netIdx: d.gangNetIdx}
		prog := &gangProg{procs: make([]gproc, len(d.procs))}
		for k, p := range d.gangProcs {
			if p == nil || d.procArts[k].boxed {
				continue
			}
			cursorMark, constMark, widMark := c.cursor, len(c.consts), c.nwids
			c.curMask = 0
			run, cont, err := c.compileGangProcess(p)
			if err != nil {
				// No gang form: roll back this process's allocations and
				// leave the per-lane solo closure in charge.
				c.cursor, c.consts, c.nwids = cursorMark, c.consts[:constMark], widMark
				continue
			}
			prog.procs[k] = gproc{run: run, cont: cont}
		}
		prog.extWords = c.cursor
		prog.nwids = c.nwids
		prog.maskSlots = c.maxMask
		prog.consts = c.consts
		d.gangProg = prog
	})
	return d.gangProg
}

// gcompiler lowers one design's processes to the gang form. It mirrors
// compiler but allocates scratch/constants in the gang ext region
// (ext-relative offsets) and tracks the worst-case lane-mask nesting.
type gcompiler struct {
	d       *Design
	netIdx  map[*net]int32
	cursor  int32 // ext-relative bump allocator
	consts  []constPatch
	nwids   int32
	curMask int32
	maxMask int32
}

// errNoGang signals a construct without a gang form; the process falls back
// to per-lane execution. Never returned to callers of gangProgram.
var errNoGang = fmt.Errorf("gang: no gang form")

func (c *gcompiler) alloc(nwords int) int32 {
	off := c.cursor
	c.cursor += int32(nwords)
	return off
}

func (c *gcompiler) node(cap int) (*gexpr, error) {
	if cap > maxRegCap {
		return nil, fmt.Errorf("%w: intermediate capacity %d bits", errNoGang, cap)
	}
	if cap < 1 {
		cap = 1
	}
	nw := words(cap)
	return &gexpr{off: c.alloc(nw), nw: int32(nw), cap: int32(cap), wid: -1, net: -1}, nil
}

func (c *gcompiler) leafConst(v Value) *gexpr {
	w := v.Width()
	nw := words(w)
	off := c.alloc(nw)
	c.consts = append(c.consts, constPatch{off: off, v: v})
	return &gexpr{off: off, nw: int32(nw), cap: int32(w), sw: int32(w), wid: -1, net: -1}
}

func (c *gcompiler) widSlot() int32 {
	id := c.nwids
	c.nwids++
	return id
}

func (c *gcompiler) pushMasks(n int32) {
	c.curMask += n
	if c.curMask > c.maxMask {
		c.maxMask = c.curMask
	}
}

func (c *gcompiler) popMasks(n int32) { c.curMask -= n }

func (c *gcompiler) compileGangProcess(p *process) (gstmt, bool, error) {
	if p.cont {
		rsc := p.rhsScope
		if rsc == nil {
			rsc = p.scope
		}
		run, err := c.compileGAssign(p.lhs, p.scope, p.rhs, rsc, true)
		if err != nil {
			return nil, false, err
		}
		return run, true, nil
	}
	body, err := c.compileGStmt(p.body, p.scope)
	if err != nil {
		return nil, false, err
	}
	return body, false, nil
}

// --- Statements --------------------------------------------------------------

func (c *gcompiler) compileGStmt(st ast.Stmt, sc *scope) (gstmt, error) {
	switch x := st.(type) {
	case *ast.Block:
		subs := make([]gstmt, len(x.Stmts))
		for i, sub := range x.Stmts {
			cs, err := c.compileGStmt(sub, sc)
			if err != nil {
				return nil, err
			}
			subs[i] = cs
		}
		return func(g *gangRun, m []int32) {
			for _, cs := range subs {
				cs(g, m)
			}
		}, nil
	case *ast.AssignStmt:
		return c.compileGAssign(x.LHS, sc, x.RHS, sc, x.Blocking)
	case *ast.If:
		cond, err := c.compileGExpr(x.Cond, sc, 0)
		if err != nil {
			return nil, err
		}
		c.pushMasks(2)
		then, err := c.compileGStmt(x.Then, sc)
		if err != nil {
			return nil, err
		}
		var els gstmt
		if x.Else != nil {
			if els, err = c.compileGStmt(x.Else, sc); err != nil {
				return nil, err
			}
		}
		c.popMasks(2)
		return func(g *gangRun, m []int32) {
			cond.eval(g, m)
			mk := g.mark()
			// Partition: known-true lanes take then; known-false and unknown
			// both take else, matching the solo lowering.
			tb := len(g.arena)
			for _, l := range m {
				cv, cx := g.planesAt(cond, l)
				if truth, known := kbool3(cv, cx); known && truth {
					g.arena = append(g.arena, l)
				}
			}
			tm := g.arena[tb:len(g.arena):len(g.arena)]
			eb := len(g.arena)
			for _, l := range m {
				cv, cx := g.planesAt(cond, l)
				if truth, known := kbool3(cv, cx); !known || !truth {
					g.arena = append(g.arena, l)
				}
			}
			em := g.arena[eb:len(g.arena):len(g.arena)]
			if len(tm) > 0 {
				then(g, tm)
			}
			if els != nil && len(em) > 0 {
				els(g, em)
			}
			g.restore(mk)
		}, nil
	case *ast.Case:
		return c.compileGCase(x, sc)
	case *ast.For:
		return c.compileGFor(x, sc)
	default:
		return nil, fmt.Errorf("%w: unsupported statement %T", errNoGang, st)
	}
}

type gcaseItem struct {
	isDefault bool
	labels    []*gexpr
	body      gstmt
}

func (c *gcompiler) compileGCase(x *ast.Case, sc *scope) (gstmt, error) {
	subj, err := c.compileGExpr(x.Subject, sc, 0)
	if err != nil {
		return nil, err
	}
	c.pushMasks(2)
	items := make([]gcaseItem, len(x.Items))
	for i, item := range x.Items {
		body, err := c.compileGStmt(item.Body, sc)
		if err != nil {
			return nil, err
		}
		ci := gcaseItem{body: body}
		if item.Labels == nil {
			ci.isDefault = true
		} else {
			ci.labels = make([]*gexpr, len(item.Labels))
			for j, lbl := range item.Labels {
				cl, err := c.compileGExpr(lbl, sc, 0)
				if err != nil {
					return nil, err
				}
				ci.labels[j] = cl
			}
		}
		items[i] = ci
	}
	c.popMasks(2)
	kind := x.Kind
	return func(g *gangRun, m []int32) {
		subj.eval(g, m)
		mk := g.mark()
		// U: lanes still looking for a match. Progressive first-match — a
		// lane that matches item i never sees item i+1, exactly like the
		// solo walk; evaluating labels for lanes that matched an earlier
		// label of the SAME item is invisible (labels are pure).
		u := g.maskCopy(m)
		deflt := -1
		for i := range items {
			if items[i].isDefault {
				deflt = i
				continue
			}
			if len(u) == 0 {
				continue
			}
			imk := g.mark()
			for _, cl := range items[i].labels {
				cl.eval(g, u)
			}
			mb := len(g.arena)
			k := 0
			for _, l := range u {
				sv, sx := g.planesAt(subj, l)
				hit := false
				for _, cl := range items[i].labels {
					lv, lx := g.planesAt(cl, l)
					switch kind {
					case ast.CaseZ:
						hit = kcasezMatch(sv, sx, lv, lx, false)
					case ast.CaseX:
						hit = kcasezMatch(sv, sx, lv, lx, true)
					default:
						hit = kcaseEqual(sv, sx, lv, lx)
					}
					if hit {
						break
					}
				}
				if hit {
					g.arena = append(g.arena, l)
				} else {
					u[k] = l
					k++
				}
			}
			matched := g.arena[mb:len(g.arena):len(g.arena)]
			u = u[:k]
			if len(matched) > 0 {
				items[i].body(g, matched)
			}
			g.restore(imk)
		}
		if deflt >= 0 && len(u) > 0 {
			items[deflt].body(g, u)
		}
		g.restore(mk)
	}, nil
}

func (c *gcompiler) compileGFor(x *ast.For, sc *scope) (gstmt, error) {
	var initA, stepA gstmt
	var err error
	if x.Init != nil {
		if initA, err = c.compileGAssignCtx(x.Init.LHS, sc, x.Init.RHS, sc, true, 0); err != nil {
			return nil, err
		}
	}
	cond, err := c.compileGExpr(x.Cond, sc, 0)
	if err != nil {
		return nil, err
	}
	c.pushMasks(1)
	body, err := c.compileGStmt(x.Body, sc)
	if err != nil {
		return nil, err
	}
	if x.Step != nil {
		if stepA, err = c.compileGAssignCtx(x.Step.LHS, sc, x.Step.RHS, sc, true, 0); err != nil {
			return nil, err
		}
	}
	c.popMasks(1)
	return func(g *gangRun, m []int32) {
		mk := g.mark()
		if initA != nil {
			initA(g, m)
		}
		// L is frame-owned: only this loop mutates it (in place), so the
		// arena never grows per iteration.
		loop := g.maskCopy(m)
		for iter := 0; ; iter++ {
			if g.anyFailed {
				loop = g.filterLive(loop)
			}
			if len(loop) == 0 {
				g.restore(mk)
				return
			}
			if iter >= maxLoopIters {
				err := fmt.Errorf("%w: for loop exceeded %d iterations", ErrRuntime, maxLoopIters)
				for _, l := range loop {
					g.failLane(l, err)
				}
				g.restore(mk)
				return
			}
			cond.eval(g, loop)
			k := 0
			for _, l := range loop {
				cv, cx := g.planesAt(cond, l)
				if truth, known := kbool3(cv, cx); known && truth {
					loop[k] = l
					k++
				}
			}
			loop = loop[:k]
			if len(loop) == 0 {
				g.restore(mk)
				return
			}
			body(g, loop)
			if stepA != nil {
				stepA(g, loop)
			}
		}
	}, nil
}

// --- Lvalues and assignment --------------------------------------------------

// gdynTarget is one dynamically resolved lvalue target: index expressions in
// pre are evaluated under the statement's mask, then res reads them per lane.
// Resolvers never error — lvalue constructs with baked runtime errors bail to
// per-lane execution at compile time.
type gdynTarget struct {
	pre []*gexpr
	res func(g *gangRun, l int32) rtarget
}

type glval struct {
	total   int
	static  []rtarget
	dyn     []gdynTarget
	netIdxs []int32
}

func (lv *glval) mayTouch(idx int32) bool {
	for _, n := range lv.netIdxs {
		if n == idx {
			return true
		}
	}
	return false
}

func (lv *glval) isWholeNet(idx int32) bool {
	return len(lv.static) == 1 && !lv.static[0].skip &&
		lv.static[0].net == idx && lv.static[0].lo == 0
}

func (c *gcompiler) compileGAssign(lhs ast.Expr, lsc *scope, rhs ast.Expr, rsc *scope, blocking bool) (gstmt, error) {
	lv, err := c.compileGLValue(lhs, lsc)
	if err != nil {
		return nil, err
	}
	return c.finishGAssign(lv, rhs, rsc, blocking, lv.total)
}

func (c *gcompiler) compileGAssignCtx(lhs ast.Expr, lsc *scope, rhs ast.Expr, rsc *scope, blocking bool, ctx int) (gstmt, error) {
	lv, err := c.compileGLValue(lhs, lsc)
	if err != nil {
		return nil, err
	}
	return c.finishGAssign(lv, rhs, rsc, blocking, ctx)
}

func (c *gcompiler) finishGAssign(lv *glval, rhs ast.Expr, rsc *scope, blocking bool, ctx int) (gstmt, error) {
	rx, err := c.compileGExpr(rhs, rsc, ctx)
	if err != nil {
		return nil, err
	}
	// Same alias bounce as the solo lowering: a net-leaf RHS the lvalue can
	// partially overwrite is copied through scratch first.
	if rx.run == nil && rx.net >= 0 && lv.mayTouch(rx.net) && !lv.isWholeNet(rx.net) {
		src := rx
		bounced, err := c.node(int(src.cap))
		if err != nil {
			return nil, err
		}
		w := src.sw
		bounced.sw = w
		bounced.run = func(g *gangRun, m []int32) {
			for _, l := range m {
				dv, dx := g.planesAt(bounced, l)
				sv, sx := g.planesAt(src, l)
				kcopy(dv, dx, sv, sx, int(w), int(bounced.nw))
			}
		}
		rx = bounced
	}
	total := lv.total
	if lv.static != nil {
		targets := lv.static
		if len(targets) == 1 && !targets[0].skip && targets[0].width == total {
			t := targets[0]
			return func(g *gangRun, m []int32) {
				rx.eval(g, m)
				for _, l := range m {
					if g.anyFailed && g.laneErr[l] != nil {
						continue
					}
					en := g.engines[l]
					sv, sx := g.planesAt(rx, l)
					if blocking {
						en.storeNet(t.net, t.lo, sv, sx, 0, total)
					} else {
						en.queueNBA(t.net, t.lo, sv, sx, 0, total)
					}
				}
			}, nil
		}
		return func(g *gangRun, m []int32) {
			rx.eval(g, m)
			for _, l := range m {
				if g.anyFailed && g.laneErr[l] != nil {
					continue
				}
				en := g.engines[l]
				sv, sx := g.planesAt(rx, l)
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
			}
		}, nil
	}
	resolvers := lv.dyn
	return func(g *gangRun, m []int32) {
		// Mirror the solo order per lane: RHS first, then every index
		// expression, then resolve ALL targets, then store.
		rx.eval(g, m)
		for i := range resolvers {
			for _, pe := range resolvers[i].pre {
				pe.eval(g, m)
			}
		}
		for _, l := range m {
			if g.anyFailed && g.laneErr[l] != nil {
				continue
			}
			en := g.engines[l]
			en.targets = en.targets[:0]
			for i := range resolvers {
				en.targets = append(en.targets, resolvers[i].res(g, l))
			}
			sv, sx := g.planesAt(rx, l)
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
		}
	}, nil
}

func (c *gcompiler) compileGLValue(lhs ast.Expr, sc *scope) (*glval, error) {
	switch x := lhs.(type) {
	case *ast.Ident:
		n, ok := sc.lookupNet(x.Name)
		if !ok {
			return nil, fmt.Errorf("%w: assignment to unknown net %q", errNoGang, x.Name)
		}
		idx := c.netIdx[n]
		return &glval{
			total:   n.width,
			static:  []rtarget{{net: idx, lo: 0, width: n.width}},
			netIdxs: []int32{idx},
		}, nil
	case *ast.Index:
		base, ok := x.X.(*ast.Ident)
		if !ok {
			return nil, fmt.Errorf("%w: nested lvalue selects", errNoGang)
		}
		n, ok2 := sc.lookupNet(base.Name)
		if !ok2 {
			return nil, fmt.Errorf("%w: assignment to unknown net %q", errNoGang, base.Name)
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
			return &glval{total: 1, static: []rtarget{t}, netIdxs: []int32{idx}}, nil
		}
		cidx, err := c.compileGExpr(x.Idx, sc, 0)
		if err != nil {
			return nil, err
		}
		res := func(g *gangRun, l int32) rtarget {
			iv, known := kfits64(g.planesAt(cidx, l))
			if !known {
				return rtarget{skip: true, width: 1}
			}
			lo := int(iv) - lsb
			if lo < 0 || lo >= width {
				return rtarget{skip: true, width: 1}
			}
			return rtarget{net: idx, lo: lo, width: 1}
		}
		return &glval{total: 1, dyn: []gdynTarget{{pre: []*gexpr{cidx}, res: res}}, netIdxs: []int32{idx}}, nil
	case *ast.PartSel:
		base, ok := x.X.(*ast.Ident)
		if !ok {
			return nil, fmt.Errorf("%w: nested lvalue selects", errNoGang)
		}
		n, ok2 := sc.lookupNet(base.Name)
		if !ok2 {
			return nil, fmt.Errorf("%w: assignment to unknown net %q", errNoGang, base.Name)
		}
		idx, lsb := c.netIdx[n], n.lsb
		av, aConst := constFold(x.A, sc)
		bv, bConst := constFold(x.B, sc)
		if aConst && bConst {
			lo, rw, known, rtErr := partSelBoundsVals(x.Kind, av, bv, lsb)
			if rtErr != nil {
				// Errors every evaluation in the solo form: no gang form.
				return nil, fmt.Errorf("%w: erroring part-select bounds", errNoGang)
			}
			t := rtarget{skip: true, width: rw}
			if known {
				t = rtarget{net: idx, lo: lo, width: rw}
			}
			return &glval{total: rw, static: []rtarget{t}, netIdxs: []int32{idx}}, nil
		}
		if x.Kind == ast.SelConst || !bConst {
			return nil, fmt.Errorf("%w: dynamic part-select bounds", errNoGang)
		}
		wv, okw := bv.Uint64()
		if !okw || wv == 0 {
			return nil, fmt.Errorf("%w: erroring indexed part-select width", errNoGang)
		}
		ca, err := c.compileGExpr(x.A, sc, 0)
		if err != nil {
			return nil, err
		}
		w := int(wv)
		minus := x.Kind == ast.SelMinus
		res := func(g *gangRun, l int32) rtarget {
			baseV, known := kfits64(g.planesAt(ca, l))
			if !known {
				return rtarget{skip: true, width: w}
			}
			lo := int(baseV) - lsb
			if minus {
				lo = int(baseV) - w + 1 - lsb
			}
			return rtarget{net: idx, lo: lo, width: w}
		}
		return &glval{total: w, dyn: []gdynTarget{{pre: []*gexpr{ca}, res: res}}, netIdxs: []int32{idx}}, nil
	case *ast.Concat:
		out := &glval{}
		allStatic := true
		var parts []*glval
		for _, part := range x.Parts {
			lv, err := c.compileGLValue(part, sc)
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
					out.dyn = append(out.dyn, gdynTarget{res: func(g *gangRun, l int32) rtarget { return t }})
				}
			} else {
				out.dyn = append(out.dyn, lv.dyn...)
			}
		}
		out.static = nil
		return out, nil
	default:
		return nil, fmt.Errorf("%w: expression is not a valid lvalue", errNoGang)
	}
}

// --- Expressions -------------------------------------------------------------

func (c *gcompiler) compileGExpr(e ast.Expr, sc *scope, ctx int) (*gexpr, error) {
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := sc.params[x.Name]; ok {
			return c.leafConst(v), nil
		}
		if n, ok := sc.lookupNet(x.Name); ok {
			idx := c.netIdx[n]
			cn := &c.d.nets[idx]
			return &gexpr{off: cn.off, inFrame: true, nw: cn.nw,
				cap: int32(n.width), sw: int32(n.width), wid: -1, net: idx}, nil
		}
		return nil, fmt.Errorf("%w: unknown identifier %q", errNoGang, x.Name)
	case *ast.Number:
		return c.leafConst(numberValue(x)), nil
	case *ast.Unary:
		return c.compileGUnary(x, sc, ctx)
	case *ast.Binary:
		return c.compileGBinary(x, sc, ctx)
	case *ast.Ternary:
		return c.compileGTernary(x, sc, ctx)
	case *ast.Concat:
		return c.compileGConcat(x, sc)
	case *ast.Repl:
		return c.compileGRepl(x, sc)
	case *ast.Index:
		return c.compileGIndex(x, sc)
	case *ast.PartSel:
		return c.compileGPartSel(x, sc)
	default:
		return nil, fmt.Errorf("%w: unsupported expression %T", errNoGang, e)
	}
}

func (c *gcompiler) compileGUnary(x *ast.Unary, sc *scope, ctx int) (*gexpr, error) {
	op := x.Op
	switch op {
	case ast.UnaryPlus:
		// Identity: reuse the operand slot, only the width context extends.
		child, err := c.compileGExpr(x.X, sc, ctx)
		if err != nil {
			return nil, err
		}
		if child.wid < 0 {
			out := *child
			out.sw = max(child.sw, int32(ctx))
			out.cap = max(child.cap, int32(ctx))
			return &out, nil
		}
		out := &gexpr{off: child.off, inFrame: child.inFrame, nw: child.nw,
			cap: max(child.cap, int32(ctx)), wid: c.widSlot(), net: -1}
		cw := int32(ctx)
		out.run = func(g *gangRun, m []int32) {
			child.eval(g, m)
			for _, l := range m {
				out.setWidth(g, l, max(child.width(g, l), cw))
			}
		}
		return out, nil
	case ast.UnaryMinus, ast.BitNot:
		child, err := c.compileGExpr(x.X, sc, ctx)
		if err != nil {
			return nil, err
		}
		out, err := c.node(int(max(child.cap, int32(ctx))))
		if err != nil {
			return nil, err
		}
		neg := op == ast.UnaryMinus
		cw := int32(ctx)
		if child.wid < 0 {
			out.sw = max(child.sw, cw)
		} else {
			out.wid = c.widSlot()
		}
		out.run = func(g *gangRun, m []int32) {
			child.eval(g, m)
			nw := int(out.nw)
			for _, l := range m {
				w := max(child.width(g, l), cw)
				dv, dx := g.planesAt(out, l)
				sv, sx := g.planesAt(child, l)
				if neg {
					kneg(dv, dx, sv, sx, int(w), nw)
				} else {
					knot(dv, dx, sv, sx, int(w), nw)
				}
				if out.wid >= 0 {
					out.setWidth(g, l, w)
				}
			}
		}
		return out, nil
	default:
		// Logical not and reductions: self-determined operand, 1-bit result.
		child, err := c.compileGExpr(x.X, sc, 0)
		if err != nil {
			return nil, err
		}
		out, err := c.node(1)
		if err != nil {
			return nil, err
		}
		out.sw = 1
		out.run = func(g *gangRun, m []int32) {
			child.eval(g, m)
			nw := int(out.nw)
			for _, l := range m {
				wc := child.width(g, l)
				sv, sx := g.planesAt(child, l)
				dv, dx := g.planesAt(out, l)
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
					code = 2
				}
				kset1(dv, dx, nw, code)
			}
		}
		return out, nil
	}
}

func (c *gcompiler) compileGBinary(x *ast.Binary, sc *scope, ctx int) (*gexpr, error) {
	op := x.Op
	switch op {
	case ast.Add, ast.Sub, ast.Mul, ast.Div, ast.Mod,
		ast.BitAnd, ast.BitOr, ast.BitXor, ast.BitXnor:
		a, err := c.compileGExpr(x.X, sc, ctx)
		if err != nil {
			return nil, err
		}
		b, err := c.compileGExpr(x.Y, sc, ctx)
		if err != nil {
			return nil, err
		}
		capb := int(max(max(a.cap, b.cap), int32(ctx)))
		out, err := c.node(capb)
		if err != nil {
			return nil, err
		}
		var aux *gexpr
		if op == ast.Div || op == ast.Mod {
			if aux, err = c.node(capb); err != nil {
				return nil, err
			}
		}
		cw := int32(ctx)
		if a.wid < 0 && b.wid < 0 {
			out.sw = max(max(a.sw, b.sw), cw)
		} else {
			out.wid = c.widSlot()
		}
		out.run = func(g *gangRun, m []int32) {
			a.eval(g, m)
			b.eval(g, m)
			nw := int(out.nw)
			for _, l := range m {
				w := int(max(max(a.width(g, l), b.width(g, l)), cw))
				dv, dx := g.planesAt(out, l)
				av, ax := g.planesAt(a, l)
				bv, bx := g.planesAt(b, l)
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
					rv, rx := g.planesAt(aux, l)
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
				if out.wid >= 0 {
					out.setWidth(g, l, int32(w))
				}
			}
		}
		return out, nil
	case ast.Shl, ast.Shr, ast.AShl, ast.AShr:
		a, err := c.compileGExpr(x.X, sc, ctx)
		if err != nil {
			return nil, err
		}
		b, err := c.compileGExpr(x.Y, sc, 0) // shift amount is self-determined
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
		if a.wid < 0 {
			out.sw = max(a.sw, cw)
		} else {
			out.wid = c.widSlot()
		}
		out.run = func(g *gangRun, m []int32) {
			a.eval(g, m)
			b.eval(g, m)
			nw := int(out.nw)
			for _, l := range m {
				w := int(max(a.width(g, l), cw))
				dv, dx := g.planesAt(out, l)
				av, ax := g.planesAt(a, l)
				bv, bx := g.planesAt(b, l)
				amt, ok := kfits64(bv, bx)
				switch {
				case !ok:
					ksetX(dv, dx, w, nw)
				case amt >= uint64(w):
					kzero(dv, dx, nw)
					if arith && kbit(av, ax, w, w-1) == 1 {
						for i := 0; i < words(w); i++ {
							dv[i] = ^uint64(0)
						}
						kfinish(dv, dx, w, nw)
					}
				default:
					kshift(dv, dx, av, ax, w, nw, int(amt), right, arith)
				}
				if out.wid >= 0 {
					out.setWidth(g, l, int32(w))
				}
			}
		}
		return out, nil
	case ast.LogAnd, ast.LogOr:
		a, err := c.compileGExpr(x.X, sc, 0)
		if err != nil {
			return nil, err
		}
		c.pushMasks(1)
		b, err := c.compileGExpr(x.Y, sc, 0)
		if err != nil {
			return nil, err
		}
		c.popMasks(1)
		out, err := c.node(1)
		if err != nil {
			return nil, err
		}
		out.sw = 1
		isAnd := op == ast.LogAnd
		out.run = func(g *gangRun, m []int32) {
			a.eval(g, m)
			// Lanes whose left operand decides the result skip the right
			// operand, preserving the solo short-circuit per lane.
			mk := g.mark()
			bb := len(g.arena)
			for _, l := range m {
				av, ax := g.planesAt(a, l)
				at, ak := kbool3(av, ax)
				if ak && ((isAnd && !at) || (!isAnd && at)) {
					continue
				}
				g.arena = append(g.arena, l)
			}
			mb := g.arena[bb:len(g.arena):len(g.arena)]
			if len(mb) > 0 {
				b.eval(g, mb)
			}
			nw := int(out.nw)
			for _, l := range m {
				dv, dx := g.planesAt(out, l)
				av, ax := g.planesAt(a, l)
				at, ak := kbool3(av, ax)
				if ak {
					if isAnd && !at {
						kset1(dv, dx, nw, 0)
						continue
					}
					if !isAnd && at {
						kset1(dv, dx, nw, 1)
						continue
					}
				}
				bv, bx := g.planesAt(b, l)
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
				kset1(dv, dx, nw, code)
			}
			g.restore(mk)
		}
		return out, nil
	default:
		// Comparisons: operands sized to each other, result is 1 bit.
		a, err := c.compileGExpr(x.X, sc, 0)
		if err != nil {
			return nil, err
		}
		b, err := c.compileGExpr(x.Y, sc, 0)
		if err != nil {
			return nil, err
		}
		out, err := c.node(1)
		if err != nil {
			return nil, err
		}
		out.sw = 1
		out.run = func(g *gangRun, m []int32) {
			a.eval(g, m)
			b.eval(g, m)
			nw := int(out.nw)
			for _, l := range m {
				dv, dx := g.planesAt(out, l)
				av, ax := g.planesAt(a, l)
				bv, bx := g.planesAt(b, l)
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
				kset1(dv, dx, nw, code)
			}
		}
		return out, nil
	}
}

func (c *gcompiler) compileGTernary(x *ast.Ternary, sc *scope, ctx int) (*gexpr, error) {
	cond, err := c.compileGExpr(x.Cond, sc, 0)
	if err != nil {
		return nil, err
	}
	c.pushMasks(2)
	then, err := c.compileGExpr(x.Then, sc, ctx)
	if err != nil {
		return nil, err
	}
	els, err := c.compileGExpr(x.Else, sc, ctx)
	if err != nil {
		return nil, err
	}
	c.popMasks(2)
	out, err := c.node(int(max(then.cap, els.cap)))
	if err != nil {
		return nil, err
	}
	if then.wid < 0 && els.wid < 0 && then.sw == els.sw {
		out.sw = then.sw
	} else {
		out.wid = c.widSlot()
	}
	out.run = func(g *gangRun, m []int32) {
		cond.eval(g, m)
		// Each branch is evaluated only under the lanes that need it
		// (known-deciding lanes skip the other branch), so nested ternary
		// cascades stay linear like the solo short-circuit. Unknown-cond
		// lanes land in both masks — branch evaluation is pure.
		mk := g.mark()
		tb := len(g.arena)
		for _, l := range m {
			cv, cx := g.planesAt(cond, l)
			if truth, known := kbool3(cv, cx); truth || !known {
				g.arena = append(g.arena, l)
			}
		}
		tm := g.arena[tb:len(g.arena):len(g.arena)]
		eb := len(g.arena)
		for _, l := range m {
			cv, cx := g.planesAt(cond, l)
			if truth, known := kbool3(cv, cx); !truth || !known {
				g.arena = append(g.arena, l)
			}
		}
		em := g.arena[eb:len(g.arena):len(g.arena)]
		if len(tm) > 0 {
			then.eval(g, tm)
		}
		if len(em) > 0 {
			els.eval(g, em)
		}
		nw := int(out.nw)
		for _, l := range m {
			cv, cx := g.planesAt(cond, l)
			truth, known := kbool3(cv, cx)
			dv, dx := g.planesAt(out, l)
			var w int32
			if known {
				br := then
				if !truth {
					br = els
				}
				w = br.width(g, l)
				sv, sx := g.planesAt(br, l)
				kcopy(dv, dx, sv, sx, int(w), nw)
			} else {
				w = max(then.width(g, l), els.width(g, l))
				tv, tx := g.planesAt(then, l)
				ev, ex := g.planesAt(els, l)
				kmergeTernary(dv, dx, tv, tx, ev, ex, int(w), nw)
			}
			if out.wid >= 0 {
				out.setWidth(g, l, w)
			}
		}
		g.restore(mk)
	}
	return out, nil
}

func (c *gcompiler) compileGConcat(x *ast.Concat, sc *scope) (*gexpr, error) {
	parts := make([]*gexpr, len(x.Parts))
	capSum := 0
	allStatic := true
	staticSum := int32(0)
	for i, pe := range x.Parts {
		cp, err := c.compileGExpr(pe, sc, 0)
		if err != nil {
			return nil, err
		}
		parts[i] = cp
		capSum += int(cp.cap)
		if cp.wid < 0 {
			staticSum += cp.sw
		} else {
			allStatic = false
		}
	}
	out, err := c.node(capSum)
	if err != nil {
		return nil, err
	}
	if allStatic {
		out.sw = staticSum
	} else {
		out.wid = c.widSlot()
	}
	out.run = func(g *gangRun, m []int32) {
		for _, cp := range parts {
			cp.eval(g, m)
		}
		nw := int(out.nw)
		for _, l := range m {
			total := int32(0)
			for _, cp := range parts {
				total += cp.width(g, l)
			}
			dv, dx := g.planesAt(out, l)
			kzero(dv, dx, nw)
			pos := total
			for _, cp := range parts {
				w := cp.width(g, l)
				pos -= w
				sv, sx := g.planesAt(cp, l)
				kblit(dv, dx, int(pos), sv, sx, 0, int(w))
			}
			if out.wid >= 0 {
				out.setWidth(g, l, total)
			}
		}
	}
	return out, nil
}

func (c *gcompiler) compileGRepl(x *ast.Repl, sc *scope) (*gexpr, error) {
	cntV, isConst := constFold(x.Count, sc)
	if !isConst {
		return nil, fmt.Errorf("%w: non-constant replication count", errNoGang)
	}
	n, ok := cntV.Uint64()
	if !ok || n > 1<<16 {
		// The solo form errors every evaluation: no gang form.
		return nil, fmt.Errorf("%w: erroring replication count", errNoGang)
	}
	child, err := c.compileGExpr(x.Value, sc, 0)
	if err != nil {
		return nil, err
	}
	out, err := c.node(int(n) * int(child.cap))
	if err != nil {
		return nil, err
	}
	cnt := int32(n)
	if child.wid < 0 {
		out.sw = cnt * child.sw
	} else {
		out.wid = c.widSlot()
	}
	out.run = func(g *gangRun, m []int32) {
		child.eval(g, m)
		nw := int(out.nw)
		for _, l := range m {
			wv := child.width(g, l)
			dv, dx := g.planesAt(out, l)
			kzero(dv, dx, nw)
			sv, sx := g.planesAt(child, l)
			for i := int32(0); i < cnt; i++ {
				kblit(dv, dx, int(i*wv), sv, sx, 0, int(wv))
			}
			if out.wid >= 0 {
				out.setWidth(g, l, cnt*wv)
			}
		}
	}
	return out, nil
}

func (c *gcompiler) compileGIndex(x *ast.Index, sc *scope) (*gexpr, error) {
	base, err := c.compileGExpr(x.X, sc, 0)
	if err != nil {
		return nil, err
	}
	lsb := exprBaseLSB(x.X, sc)
	cidx, err := c.compileGExpr(x.Idx, sc, 0)
	if err != nil {
		return nil, err
	}
	out, err := c.node(1)
	if err != nil {
		return nil, err
	}
	out.sw = 1
	out.run = func(g *gangRun, m []int32) {
		base.eval(g, m)
		cidx.eval(g, m)
		nw := int(out.nw)
		for _, l := range m {
			wb := base.width(g, l)
			dv, dx := g.planesAt(out, l)
			iv, known := kfits64(g.planesAt(cidx, l))
			if !known {
				kset1(dv, dx, nw, 2)
				continue
			}
			lo := int(iv) - lsb
			if lo < 0 || lo >= int(wb) {
				kset1(dv, dx, nw, 2)
				continue
			}
			sv, sx := g.planesAt(base, l)
			kset1(dv, dx, nw, kbit(sv, sx, int(wb), lo))
		}
	}
	return out, nil
}

func (c *gcompiler) compileGPartSel(x *ast.PartSel, sc *scope) (*gexpr, error) {
	base, err := c.compileGExpr(x.X, sc, 0)
	if err != nil {
		return nil, err
	}
	lsb := exprBaseLSB(x.X, sc)
	av, aConst := constFold(x.A, sc)
	bv, bConst := constFold(x.B, sc)
	if aConst && bConst {
		lo, w, known, rtErr := partSelBoundsVals(x.Kind, av, bv, lsb)
		if rtErr != nil {
			return nil, fmt.Errorf("%w: erroring part-select bounds", errNoGang)
		}
		out, err := c.node(w)
		if err != nil {
			return nil, err
		}
		out.sw = int32(w)
		out.run = func(g *gangRun, m []int32) {
			base.eval(g, m)
			nw := int(out.nw)
			for _, l := range m {
				dv, dx := g.planesAt(out, l)
				if !known {
					ksetX(dv, dx, w, nw)
					continue
				}
				wb := base.width(g, l)
				sv, sx := g.planesAt(base, l)
				kslice(dv, dx, w, nw, sv, sx, int(wb), lo)
			}
		}
		return out, nil
	}
	if x.Kind == ast.SelConst || !bConst {
		return nil, fmt.Errorf("%w: dynamic part-select bounds", errNoGang)
	}
	wv, okw := bv.Uint64()
	if !okw || wv == 0 {
		return nil, fmt.Errorf("%w: erroring indexed part-select width", errNoGang)
	}
	ca, err := c.compileGExpr(x.A, sc, 0)
	if err != nil {
		return nil, err
	}
	w := int(wv)
	minus := x.Kind == ast.SelMinus
	out, err := c.node(w)
	if err != nil {
		return nil, err
	}
	out.sw = int32(w)
	out.run = func(g *gangRun, m []int32) {
		base.eval(g, m)
		ca.eval(g, m)
		nw := int(out.nw)
		for _, l := range m {
			wb := base.width(g, l)
			dv, dx := g.planesAt(out, l)
			baseV, known := kfits64(g.planesAt(ca, l))
			if !known {
				ksetX(dv, dx, w, nw)
				continue
			}
			lo := int(baseV) - lsb
			if minus {
				lo = int(baseV) - w + 1 - lsb
			}
			sv, sx := g.planesAt(base, l)
			kslice(dv, dx, w, nw, sv, sx, int(wb), lo)
		}
	}
	return out, nil
}
