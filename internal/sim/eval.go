package sim

import (
	"fmt"

	"repro/internal/verilog/ast"
)

// --- Public stimulus API -------------------------------------------------------

// Inputs returns the top module's input ports in declaration order.
func (s *Simulator) Inputs() []PortInfo { return append([]PortInfo(nil), s.inputs...) }

// Outputs returns the top module's output ports in declaration order.
func (s *Simulator) Outputs() []PortInfo { return append([]PortInfo(nil), s.outputs...) }

// SetInput drives a top-level input port. The new value takes effect at the
// next Settle call (changes are queued immediately).
func (s *Simulator) SetInput(name string, v Value) error {
	for _, in := range s.inputs {
		if in.Name == name {
			n, ok := s.topScope.lookupNet(name)
			if !ok {
				return fmt.Errorf("%w: %q", ErrUnknownNet, name)
			}
			s.writeNet(n, 0, v.Resize(n.width))
			return nil
		}
	}
	return fmt.Errorf("%w: %q", ErrNotInput, name)
}

// SetInputUint drives an input port with a known integer value.
func (s *Simulator) SetInputUint(name string, x uint64) error {
	n, ok := s.topScope.lookupNet(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNet, name)
	}
	return s.SetInput(name, NewKnown(n.width, x))
}

// Output reads any top-level net (usually an output port).
func (s *Simulator) Output(name string) (Value, error) {
	n, ok := s.topScope.lookupNet(name)
	if !ok {
		return Value{}, fmt.Errorf("%w: %q", ErrUnknownNet, name)
	}
	return n.value, nil
}

// InputHandle resolves an input port name to an instance-stable handle (the
// net's elaboration index). Elaboration is deterministic, so the handle is
// valid on every Simulator instance of the same source: a testbench schedule
// bound on one per-case instance drives all of them. Error semantics mirror
// SetInput (ErrNotInput for names that are not input ports).
func (s *Simulator) InputHandle(name string) (int, error) {
	for _, in := range s.inputs {
		if in.Name == name {
			n, ok := s.topScope.lookupNet(name)
			if !ok {
				return -1, fmt.Errorf("%w: %q", ErrUnknownNet, name)
			}
			return n.idx, nil
		}
	}
	return -1, fmt.Errorf("%w: %q", ErrNotInput, name)
}

// OutputHandle resolves a top-level net name to an instance-stable handle,
// with Output's error semantics.
func (s *Simulator) OutputHandle(name string) (int, error) {
	n, ok := s.topScope.lookupNet(name)
	if !ok {
		return -1, fmt.Errorf("%w: %q", ErrUnknownNet, name)
	}
	return n.idx, nil
}

// SetInputH drives an input port through its handle (SetInput without the
// port scan and scope lookup).
func (s *Simulator) SetInputH(h int, v Value) {
	n := s.nets[h]
	s.writeNet(n, 0, v.Resize(n.width))
}

// SetInputUintH drives an input port with a known integer value through its
// handle.
func (s *Simulator) SetInputUintH(h int, x uint64) {
	n := s.nets[h]
	s.writeNet(n, 0, NewKnown(n.width, x))
}

// TickH performs one full clock cycle through the clock's handle.
func (s *Simulator) TickH(h int) error {
	s.SetInputUintH(h, 1)
	if err := s.Settle(); err != nil {
		return err
	}
	s.SetInputUintH(h, 0)
	return s.Settle()
}

// HashOutputH folds the net's printed rendering at the given width into a
// running FNV-1a hash: byte-identical to hashing AppendOutputH's output.
// The interpreter is not a hot path (it is the differential referee, and in
// production runs only the rare design the register file refuses), so it
// renders through the boxed Value.
func (s *Simulator) HashOutputH(hash uint64, h int, width int) uint64 {
	rendered := s.nets[h].value.Resize(width).String()
	for i := 0; i < len(rendered); i++ {
		hash = (hash ^ uint64(rendered[i])) * FNVPrime64
	}
	return hash
}

// AppendOutputH appends the net's binary rendering at the given width,
// identical to Output(name).Resize(width).String().
func (s *Simulator) AppendOutputH(dst []byte, h int, width int) []byte {
	return append(dst, s.nets[h].value.Resize(width).String()...)
}

// Settle runs delta cycles until no activity remains, or fails with
// ErrNoConverge.
func (s *Simulator) Settle() error {
	for iter := 0; ; iter++ {
		if iter > maxDeltas {
			return ErrNoConverge
		}
		if len(s.changed) > 0 {
			s.dispatchChanges()
			continue
		}
		if len(s.active) > 0 {
			if err := s.runActive(); err != nil {
				return err
			}
			continue
		}
		if len(s.nba) > 0 {
			s.applyNBA()
			continue
		}
		return nil
	}
}

// Tick performs one full clock cycle on the named clock input:
// posedge (0→1), settle, negedge (1→0), settle.
func (s *Simulator) Tick(clock string) error {
	if err := s.SetInputUint(clock, 1); err != nil {
		return err
	}
	if err := s.Settle(); err != nil {
		return err
	}
	if err := s.SetInputUint(clock, 0); err != nil {
		return err
	}
	return s.Settle()
}

// --- Scheduler internals ----------------------------------------------------------

func (s *Simulator) enqueue(p *process) {
	if p == nil || p.queued {
		return
	}
	p.queued = true
	s.active = append(s.active, p)
}

// writeNet stores width bits of v into n starting at storage offset lo and
// records the change for fanout dispatch.
func (s *Simulator) writeNet(n *net, lo int, v Value) {
	old := n.value
	var updated Value
	if lo == 0 && v.Width() == n.width {
		updated = v
	} else {
		updated = old.WriteBits(lo, v)
	}
	if old.Equal(updated) {
		return
	}
	n.value = updated
	s.changed = append(s.changed, netChange{n: n, old: old, new: updated, byProc: s.currentProc})
}

func (s *Simulator) dispatchChanges() {
	batch := s.changed
	s.changed = nil
	for _, ch := range batch {
		for _, p := range ch.n.levelFanout {
			if p == ch.byProc {
				continue // processes miss events raised during their own run
			}
			s.enqueue(p)
		}
		for _, sub := range ch.n.edgeFanout {
			if sub.proc == ch.byProc {
				continue
			}
			if edgeFired(sub.edge, ch.old, ch.new) {
				s.enqueue(sub.proc)
			}
		}
	}
}

// edgeFired implements LRM edge semantics on the LSB: posedge fires on
// transitions toward 1 (0→1, 0→x/z, x/z→1), negedge mirrors toward 0.
func edgeFired(edge ast.EdgeKind, old, new Value) bool {
	ob, nb := old.Bit(0), new.Bit(0)
	if ob == nb {
		return false
	}
	switch edge {
	case ast.EdgePos:
		return (ob == '0' && nb != '0') || (ob != '1' && nb == '1')
	case ast.EdgeNeg:
		return (ob == '1' && nb != '1') || (ob != '0' && nb == '0')
	default:
		return false
	}
}

func (s *Simulator) runActive() error {
	batch := s.active
	s.active = nil
	for _, p := range batch {
		p.queued = false
		if err := s.runProcess(p); err != nil {
			return err
		}
	}
	return nil
}

func (s *Simulator) applyNBA() {
	batch := s.nba
	s.nba = nil
	for _, w := range batch {
		s.writeNet(w.target, w.lo, w.val)
	}
}

func (s *Simulator) runProcess(p *process) error {
	// Only behavioral processes miss events raised during their own run
	// (they re-arm at the event control after the body completes).
	// Continuous assignments re-evaluate on any change of their inputs,
	// including self-feedback — that is what makes a zero-delay
	// combinational loop oscillate instead of silently freezing.
	prev := s.currentProc
	if !p.cont {
		s.currentProc = p
	}
	defer func() { s.currentProc = prev }()
	if p.cont {
		rsc := p.rhsScope
		if rsc == nil {
			rsc = p.scope
		}
		w, err := s.lvalueWidth(p.lhs, p.scope)
		if err != nil {
			return err
		}
		v, err := s.evalCtx(p.rhs, rsc, w)
		if err != nil {
			return err
		}
		return s.assign(p.lhs, v, p.scope, true)
	}
	return s.execStmt(p.body, p.scope)
}

// lvalueWidth computes the total width of an lvalue without evaluating
// dynamic indices (dynamic selects contribute their fixed width).
func (s *Simulator) lvalueWidth(lhs ast.Expr, sc *scope) (int, error) {
	switch x := lhs.(type) {
	case *ast.Ident:
		n, ok := sc.lookupNet(x.Name)
		if !ok {
			return 0, fmt.Errorf("%w: assignment to unknown net %q", ErrRuntime, x.Name)
		}
		return n.width, nil
	case *ast.Index:
		return 1, nil
	case *ast.PartSel:
		av, errA := s.eval(x.A, sc)
		bv, errB := s.eval(x.B, sc)
		if errA != nil || errB != nil {
			return 1, nil
		}
		return partSelLvalueWidthVals(x.Kind, av, bv), nil
	case *ast.Concat:
		total := 0
		for _, p := range x.Parts {
			w, err := s.lvalueWidth(p, sc)
			if err != nil {
				return 0, err
			}
			total += w
		}
		return total, nil
	default:
		return 0, fmt.Errorf("%w: expression is not a valid lvalue", ErrRuntime)
	}
}

// --- Statement execution -----------------------------------------------------------

func (s *Simulator) execStmt(st ast.Stmt, sc *scope) error {
	switch x := st.(type) {
	case *ast.Block:
		for _, sub := range x.Stmts {
			if err := s.execStmt(sub, sc); err != nil {
				return err
			}
		}
		return nil
	case *ast.AssignStmt:
		w, err := s.lvalueWidth(x.LHS, sc)
		if err != nil {
			return err
		}
		v, err := s.evalCtx(x.RHS, sc, w)
		if err != nil {
			return err
		}
		return s.assign(x.LHS, v, sc, x.Blocking)
	case *ast.If:
		cond, err := s.eval(x.Cond, sc)
		if err != nil {
			return err
		}
		truth, known := cond.Bool3()
		switch {
		case known && truth:
			return s.execStmt(x.Then, sc)
		case known && !truth:
			if x.Else != nil {
				return s.execStmt(x.Else, sc)
			}
			return nil
		default:
			// Unknown condition: per common simulator behavior, take the
			// else branch (Icarus treats X as false).
			if x.Else != nil {
				return s.execStmt(x.Else, sc)
			}
			return nil
		}
	case *ast.Case:
		return s.execCase(x, sc)
	case *ast.For:
		return s.execFor(x, sc)
	default:
		return fmt.Errorf("%w: unsupported statement %T", ErrRuntime, st)
	}
}

func (s *Simulator) execCase(c *ast.Case, sc *scope) error {
	subj, err := s.eval(c.Subject, sc)
	if err != nil {
		return err
	}
	var deflt *ast.CaseItem
	for _, item := range c.Items {
		if item.Labels == nil {
			deflt = item
			continue
		}
		for _, lbl := range item.Labels {
			lv, err := s.eval(lbl, sc)
			if err != nil {
				return err
			}
			match := false
			switch c.Kind {
			case ast.CaseZ:
				match = CasezMatch(subj, lv, false)
			case ast.CaseX:
				match = CasezMatch(subj, lv, true)
			default:
				w := maxInt(subj.Width(), lv.Width())
				match = subj.Resize(w).Equal(lv.Resize(w))
			}
			if match {
				return s.execStmt(item.Body, sc)
			}
		}
	}
	if deflt != nil {
		return s.execStmt(deflt.Body, sc)
	}
	return nil
}

func (s *Simulator) execFor(f *ast.For, sc *scope) error {
	if f.Init != nil {
		v, err := s.eval(f.Init.RHS, sc)
		if err != nil {
			return err
		}
		if err := s.assign(f.Init.LHS, v, sc, true); err != nil {
			return err
		}
	}
	for iter := 0; ; iter++ {
		if iter >= maxLoopIters {
			return fmt.Errorf("%w: for loop exceeded %d iterations", ErrRuntime, maxLoopIters)
		}
		cond, err := s.eval(f.Cond, sc)
		if err != nil {
			return err
		}
		truth, known := cond.Bool3()
		if !known || !truth {
			return nil
		}
		if err := s.execStmt(f.Body, sc); err != nil {
			return err
		}
		if f.Step != nil {
			v, err := s.eval(f.Step.RHS, sc)
			if err != nil {
				return err
			}
			if err := s.assign(f.Step.LHS, v, sc, true); err != nil {
				return err
			}
		}
	}
}

// assign writes v to the lvalue. Blocking writes update immediately;
// non-blocking writes are queued for the NBA region.
func (s *Simulator) assign(lhs ast.Expr, v Value, sc *scope, blocking bool) error {
	targets, totalWidth, err := s.resolveLValue(lhs, sc)
	if err != nil {
		return err
	}
	v = v.Resize(totalWidth)
	// Distribute bits MSB-first across targets (concat order).
	pos := totalWidth
	for _, t := range targets {
		pos -= t.width
		part := v.SliceBits(pos, t.width)
		if t.skip {
			continue
		}
		if blocking {
			s.writeNet(t.n, t.lo, part)
		} else {
			s.nba = append(s.nba, nbaWrite{target: t.n, lo: t.lo, val: part})
		}
	}
	return nil
}

// lvTarget is one resolved slice of an lvalue.
type lvTarget struct {
	n     *net
	lo    int // storage bit offset
	width int
	skip  bool // write dropped (e.g. X index)
}

// resolveLValue flattens an lvalue into net slices, MSB-first.
func (s *Simulator) resolveLValue(lhs ast.Expr, sc *scope) ([]lvTarget, int, error) {
	switch x := lhs.(type) {
	case *ast.Ident:
		n, ok := sc.lookupNet(x.Name)
		if !ok {
			return nil, 0, fmt.Errorf("%w: assignment to unknown net %q", ErrRuntime, x.Name)
		}
		return []lvTarget{{n: n, lo: 0, width: n.width}}, n.width, nil
	case *ast.Index:
		base, ok := x.X.(*ast.Ident)
		if !ok {
			return nil, 0, fmt.Errorf("%w: nested lvalue selects are not supported", ErrRuntime)
		}
		n, ok2 := sc.lookupNet(base.Name)
		if !ok2 {
			return nil, 0, fmt.Errorf("%w: assignment to unknown net %q", ErrRuntime, base.Name)
		}
		idx, err := s.eval(x.Idx, sc)
		if err != nil {
			return nil, 0, err
		}
		iv, known := idx.Uint64()
		if !known {
			return []lvTarget{{skip: true, width: 1}}, 1, nil
		}
		lo := int(iv) - n.lsb
		if lo < 0 || lo >= n.width {
			return []lvTarget{{skip: true, width: 1}}, 1, nil
		}
		return []lvTarget{{n: n, lo: lo, width: 1}}, 1, nil
	case *ast.PartSel:
		base, ok := x.X.(*ast.Ident)
		if !ok {
			return nil, 0, fmt.Errorf("%w: nested lvalue selects are not supported", ErrRuntime)
		}
		n, ok2 := sc.lookupNet(base.Name)
		if !ok2 {
			return nil, 0, fmt.Errorf("%w: assignment to unknown net %q", ErrRuntime, base.Name)
		}
		lo, w, known, err := s.partSelBounds(x, n, sc)
		if err != nil {
			return nil, 0, err
		}
		if !known {
			return []lvTarget{{skip: true, width: w}}, w, nil
		}
		return []lvTarget{{n: n, lo: lo, width: w}}, w, nil
	case *ast.Concat:
		var all []lvTarget
		total := 0
		for _, part := range x.Parts {
			ts, w, err := s.resolveLValue(part, sc)
			if err != nil {
				return nil, 0, err
			}
			all = append(all, ts...)
			total += w
		}
		return all, total, nil
	default:
		return nil, 0, fmt.Errorf("%w: expression is not a valid lvalue", ErrRuntime)
	}
}

// partSelBounds computes (storage lo, width, indexKnown) for a part-select.
func (s *Simulator) partSelBounds(x *ast.PartSel, n *net, sc *scope) (int, int, bool, error) {
	av, err := s.eval(x.A, sc)
	if err != nil {
		return 0, 0, false, err
	}
	bv, err := s.eval(x.B, sc)
	if err != nil {
		return 0, 0, false, err
	}
	return partSelBoundsVals(x.Kind, av, bv, n.lsb)
}

// partSelLvalueWidthVals is the pure lvalue-width estimate for a part-select
// (errors and unknown bounds degrade to width 1), shared by both backends.
func partSelLvalueWidthVals(kind ast.SelKind, av, bv Value) int {
	switch kind {
	case ast.SelConst:
		a, ok1 := av.Uint64()
		b, ok2 := bv.Uint64()
		if ok1 && ok2 && a >= b {
			return int(a-b) + 1
		}
		return 1
	default:
		w, ok := bv.Uint64()
		if ok && w > 0 {
			return int(w)
		}
		return 1
	}
}

// partSelBoundsVals is the pure part-select bounds computation shared by the
// interpreter and the compiled backend, so both resolve selects identically.
func partSelBoundsVals(kind ast.SelKind, av, bv Value, lsb int) (int, int, bool, error) {
	switch kind {
	case ast.SelConst:
		a, ok1 := av.Uint64()
		b, ok2 := bv.Uint64()
		if !ok1 || !ok2 {
			return 0, 1, false, nil
		}
		if b > a {
			return 0, 0, false, fmt.Errorf("%w: reversed part-select [%d:%d]", ErrRuntime, a, b)
		}
		w := int(a-b) + 1
		return int(b) - lsb, w, true, nil
	case ast.SelPlus:
		wv, okw := bv.Uint64()
		if !okw || wv == 0 {
			return 0, 0, false, fmt.Errorf("%w: indexed part-select width must be a positive constant", ErrRuntime)
		}
		base, okb := av.Uint64()
		if !okb {
			return 0, int(wv), false, nil
		}
		return int(base) - lsb, int(wv), true, nil
	case ast.SelMinus:
		wv, okw := bv.Uint64()
		if !okw || wv == 0 {
			return 0, 0, false, fmt.Errorf("%w: indexed part-select width must be a positive constant", ErrRuntime)
		}
		base, okb := av.Uint64()
		if !okb {
			return 0, int(wv), false, nil
		}
		return int(base) - int(wv) + 1 - lsb, int(wv), true, nil
	default:
		return 0, 0, false, fmt.Errorf("%w: unknown part-select kind", ErrRuntime)
	}
}

// --- Expression evaluation ------------------------------------------------------------

// eval evaluates e self-determined (no assignment context width).
func (s *Simulator) eval(e ast.Expr, sc *scope) (Value, error) {
	return s.evalCtx(e, sc, 0)
}

// evalCtx evaluates e under a context width: per Verilog sizing rules,
// arithmetic and bitwise operands are extended to the maximum of their own
// widths and the assignment context, while comparisons, concatenations,
// selects and shift amounts are self-determined.
func (s *Simulator) evalCtx(e ast.Expr, sc *scope, ctx int) (Value, error) {
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := sc.params[x.Name]; ok {
			return v, nil
		}
		if n, ok := sc.lookupNet(x.Name); ok {
			return n.value, nil
		}
		return Value{}, fmt.Errorf("%w: unknown identifier %q", ErrRuntime, x.Name)
	case *ast.Number:
		return numberValue(x), nil
	case *ast.Unary:
		switch x.Op {
		case ast.UnaryPlus, ast.UnaryMinus, ast.BitNot:
			v, err := s.evalCtx(x.X, sc, ctx)
			if err != nil {
				return Value{}, err
			}
			if ctx > v.Width() {
				v = v.Resize(ctx)
			}
			return evalUnary(x.Op, v), nil
		default:
			// Logical not and reductions are self-determined, 1-bit results.
			v, err := s.eval(x.X, sc)
			if err != nil {
				return Value{}, err
			}
			return evalUnary(x.Op, v), nil
		}
	case *ast.Binary:
		return s.evalBinaryCtx(x, sc, ctx)
	case *ast.Ternary:
		cond, err := s.eval(x.Cond, sc)
		if err != nil {
			return Value{}, err
		}
		truth, known := cond.Bool3()
		if known {
			if truth {
				return s.evalCtx(x.Then, sc, ctx)
			}
			return s.evalCtx(x.Else, sc, ctx)
		}
		tv, err := s.evalCtx(x.Then, sc, ctx)
		if err != nil {
			return Value{}, err
		}
		ev, err := s.evalCtx(x.Else, sc, ctx)
		if err != nil {
			return Value{}, err
		}
		return mergeTernary(tv, ev), nil
	case *ast.Concat:
		parts := make([]Value, len(x.Parts))
		for i, pe := range x.Parts {
			v, err := s.eval(pe, sc)
			if err != nil {
				return Value{}, err
			}
			parts[i] = v
		}
		return ConcatVals(parts), nil
	case *ast.Repl:
		cnt, err := s.eval(x.Count, sc)
		if err != nil {
			return Value{}, err
		}
		c, ok := cnt.Uint64()
		if !ok || c > 1<<16 {
			return Value{}, fmt.Errorf("%w: replication count must be a small constant", ErrRuntime)
		}
		v, err := s.eval(x.Value, sc)
		if err != nil {
			return Value{}, err
		}
		return ReplVal(int(c), v), nil
	case *ast.Index:
		return s.evalIndex(x, sc)
	case *ast.PartSel:
		return s.evalPartSel(x, sc)
	default:
		return Value{}, fmt.Errorf("%w: unsupported expression %T", ErrRuntime, e)
	}
}

func (s *Simulator) evalBinaryCtx(x *ast.Binary, sc *scope, ctx int) (Value, error) {
	switch x.Op {
	case ast.Add, ast.Sub, ast.Mul, ast.Div, ast.Mod,
		ast.BitAnd, ast.BitOr, ast.BitXor, ast.BitXnor:
		a, err := s.evalCtx(x.X, sc, ctx)
		if err != nil {
			return Value{}, err
		}
		b, err := s.evalCtx(x.Y, sc, ctx)
		if err != nil {
			return Value{}, err
		}
		w := maxInt(maxInt(a.Width(), b.Width()), ctx)
		return evalBinary(x.Op, a.Resize(w), b.Resize(w)), nil
	case ast.Shl, ast.Shr, ast.AShl, ast.AShr:
		a, err := s.evalCtx(x.X, sc, ctx)
		if err != nil {
			return Value{}, err
		}
		if ctx > a.Width() {
			a = a.Resize(ctx)
		}
		b, err := s.eval(x.Y, sc) // shift amount is self-determined
		if err != nil {
			return Value{}, err
		}
		return evalBinary(x.Op, a, b), nil
	case ast.LogAnd, ast.LogOr:
		a, err := s.eval(x.X, sc)
		if err != nil {
			return Value{}, err
		}
		truth, known := a.Bool3()
		if known {
			if x.Op == ast.LogAnd && !truth {
				return NewKnown(1, 0), nil
			}
			if x.Op == ast.LogOr && truth {
				return NewKnown(1, 1), nil
			}
		}
		b, err := s.eval(x.Y, sc)
		if err != nil {
			return Value{}, err
		}
		return evalBinary(x.Op, a, b), nil
	default:
		// Comparisons: operands sized to each other, result is 1 bit.
		a, err := s.eval(x.X, sc)
		if err != nil {
			return Value{}, err
		}
		b, err := s.eval(x.Y, sc)
		if err != nil {
			return Value{}, err
		}
		return evalBinary(x.Op, a, b), nil
	}
}

func (s *Simulator) evalIndex(x *ast.Index, sc *scope) (Value, error) {
	base, err := s.eval(x.X, sc)
	if err != nil {
		return Value{}, err
	}
	lsb := 0
	if id, ok := x.X.(*ast.Ident); ok {
		if n, ok2 := sc.lookupNet(id.Name); ok2 {
			lsb = n.lsb
		}
	}
	idx, err := s.eval(x.Idx, sc)
	if err != nil {
		return Value{}, err
	}
	iv, known := idx.Uint64()
	if !known {
		return NewX(1), nil
	}
	return base.SliceBits(int(iv)-lsb, 1), nil
}

func (s *Simulator) evalPartSel(x *ast.PartSel, sc *scope) (Value, error) {
	base, err := s.eval(x.X, sc)
	if err != nil {
		return Value{}, err
	}
	lsb := 0
	if id, ok := x.X.(*ast.Ident); ok {
		if n, ok2 := sc.lookupNet(id.Name); ok2 {
			lsb = n.lsb
		}
	}
	fake := &net{width: base.Width(), lsb: lsb}
	lo, w, known, err := s.partSelBounds(x, fake, sc)
	if err != nil {
		return Value{}, err
	}
	if !known {
		return NewX(w), nil
	}
	return base.SliceBits(lo, w), nil
}

// numberValue materializes a literal, shared by both backends.
func numberValue(x *ast.Number) Value {
	w := x.Width
	if w <= 0 {
		w = 32
		if len(x.Val)*64 > 32 {
			// Wide unsized literal: keep its natural storage width.
			w = len(x.Val) * 64
		}
	}
	return NewFromPlanes(w, x.Val, x.XZ)
}

func evalUnary(op ast.UnaryOp, v Value) Value {
	switch op {
	case ast.UnaryPlus:
		return v
	case ast.UnaryMinus:
		return Neg(v)
	case ast.LogicalNot:
		truth, known := v.Bool3()
		if !known {
			return NewX(1)
		}
		return NewKnown(1, boolToU64(!truth))
	case ast.BitNot:
		return Not(v)
	case ast.RedAnd:
		return RedAnd(v)
	case ast.RedOr:
		return RedOr(v)
	case ast.RedXor:
		return RedXor(v)
	case ast.RedNand:
		return Not(RedAnd(v))
	case ast.RedNor:
		return Not(RedOr(v))
	case ast.RedXnor:
		return Not(RedXor(v))
	default:
		return NewX(v.Width())
	}
}

func evalBinary(op ast.BinaryOp, a, b Value) Value {
	switch op {
	case ast.Add:
		return Add(a, b)
	case ast.Sub:
		return Sub(a, b)
	case ast.Mul:
		return Mul(a, b)
	case ast.Div:
		return Div(a, b)
	case ast.Mod:
		return Mod(a, b)
	case ast.BitAnd:
		return And(a, b)
	case ast.BitOr:
		return Or(a, b)
	case ast.BitXor:
		return Xor(a, b)
	case ast.BitXnor:
		return Xnor(a, b)
	case ast.LogAnd:
		at, ak := a.Bool3()
		bt, bk := b.Bool3()
		switch {
		case ak && !at, bk && !bt:
			return NewKnown(1, 0)
		case ak && bk:
			return NewKnown(1, boolToU64(at && bt))
		default:
			return NewX(1)
		}
	case ast.LogOr:
		at, ak := a.Bool3()
		bt, bk := b.Bool3()
		switch {
		case ak && at, bk && bt:
			return NewKnown(1, 1)
		case ak && bk:
			return NewKnown(1, boolToU64(at || bt))
		default:
			return NewX(1)
		}
	case ast.Eq:
		return Eq(a, b)
	case ast.Neq:
		return Neq(a, b)
	case ast.CaseEq:
		return CaseEq(a, b)
	case ast.CaseNeq:
		return CaseNeq(a, b)
	case ast.Lt:
		return Lt(a, b)
	case ast.Leq:
		return Leq(a, b)
	case ast.Gt:
		return Gt(a, b)
	case ast.Geq:
		return Geq(a, b)
	case ast.Shl, ast.AShl:
		return Shl(a, b)
	case ast.Shr:
		return Shr(a, b)
	case ast.AShr:
		return AShr(a, b)
	default:
		return NewX(maxInt(a.Width(), b.Width()))
	}
}

// mergeTernary merges branch values bitwise when the condition is unknown:
// agreeing known bits survive, all others become X.
func mergeTernary(a, b Value) Value {
	w := maxInt(a.Width(), b.Width())
	a, b = a.Resize(w), b.Resize(w)
	out := NewX(w)
	for i := 0; i < w; i++ {
		ab, bb := a.Bit(i), b.Bit(i)
		if ab == bb && (ab == '0' || ab == '1') {
			out.setBit(i, ab)
		}
	}
	return out
}
