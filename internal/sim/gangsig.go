package sim

import "repro/internal/verilog/ast"

// Gang signatures: alpha-renaming-insensitive hashes deciding when two
// designs are the same machine, so that one SoA gang lane can mirror
// another's fingerprints and errors instead of executing (laneEqual in
// soa.go), and so that ranking can batch such designs into one gang
// (GangClassHash).
//
// A name-sensitive key (printed process text, hierarchical net names) is the
// wrong equivalence for ranking gangs: LLM candidates habitually rename
// internal registers (hist vs hist_r vs hist_v) while keeping the circuit
// identical, and a renamed process prints differently even though it lowers
// to the same closures. A lowered process captures no names — only net
// indices, frame offsets derived from widths, and constant values — so the
// honest equivalence is structural:
//
//   - gangLayoutSigOf hashes the flattened net shapes in order (width, LSB)
//     and the lowering mode, but not names. Equal signatures mean net index i
//     occupies the same frame range with the same bit addressing in both
//     designs, which is all a lowered process's loads and stores depend on.
//   - gangProcSig hashes one process with every identifier resolved the way
//     lowering resolves it: parameters fold as their elaborated constant
//     value, nets fold as their index. Two processes with equal signatures
//     are structurally identical modulo renaming, so they compute the same
//     thing on the same frame.
//
// Everything lowering reads is covered: AST shape and operators, parameter
// values (constFold consults only sc.params), resolved net indices (net
// width/LSB then come from the layout signature), literal values (numbers
// fold by value, so 4'd15 and 4'b1111 hash equal, matching numberValue), and
// assignment/case/select kinds. Sensitivity lists are deliberately excluded:
// laneEqual compares the dispatch tables, which carry them, directly.

// Node tags folded ahead of each node so that different shapes cannot collide
// by concatenation reshuffling (every variable-length child list is folded
// with a leading count for the same reason).
const (
	gsNil uint64 = iota + 1
	gsParam
	gsNet
	gsFreeIdent
	gsNumber
	gsUnary
	gsBinary
	gsTernary
	gsConcat
	gsRepl
	gsIndex
	gsPartSel
	gsBlock
	gsAssign
	gsIf
	gsCase
	gsCaseItem
	gsCaseDefault
	gsFor
	gsLValNet
	gsLValFree
	gsCont
	gsBehavioral
)

// sigString folds s (length-prefixed, so concatenations cannot collide by
// re-splitting) into a running FNV-1a hash.
func sigString(h uint64, s string) uint64 {
	h = sigUint(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * FNVPrime64
	}
	return h
}

// sigUint folds the eight bytes of x, low first, into a running FNV-1a hash.
func sigUint(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * FNVPrime64
		x >>= 8
	}
	return h
}

// gangLayoutSigOf fixes every net's index, width, declared LSB and (by
// accumulation over the preceding widths) frame offset, without pinning
// hierarchical names.
func gangLayoutSigOf(s *Simulator, forceBoxed bool) uint64 {
	h := sigUint(FNVOffset64, uint64(len(s.nets)))
	if forceBoxed {
		h = sigUint(h, 1)
	}
	for _, n := range s.nets {
		h = sigUint(h, uint64(n.width))
		h = sigUint(h, uint64(int64(n.lsb)))
	}
	return h
}

// GangClassHash folds every design-level input the SoA gang's whole-lane
// dedup compares (laneEqual): name-blind layout, per-process signatures and
// boxed-ness, dispatch tables, and the initial frame snapshot. Callers use
// it to order candidates so alpha-equivalent designs land in the same gang,
// where dedup collapses them. The hash is advisory — the gang re-verifies
// equality field by field — so a collision costs batching quality, never
// correctness. Computed once at compile time: the walk covers the whole
// frame snapshot, which is too much to redo per ranking call on the
// memo-warm path.
func (d *Design) GangClassHash() uint64 { return d.gangClassHash }

func (d *Design) computeGangClassHash() uint64 {
	h := sigUint(FNVOffset64, d.gangLayoutSig)
	h = sigUint(h, uint64(len(d.procArts)))
	for k := range d.procArts {
		h = sigUint(h, d.procArts[k].gangSig)
		if d.procArts[k].boxed {
			h = sigUint(h, 1)
		}
	}
	for i := range d.initVal {
		h = sigUint(h, d.initVal[i])
		h = sigUint(h, d.initXZ[i])
	}
	for i := range d.levelFan {
		h = sigUint(h, uint64(len(d.levelFan[i])))
		for _, pid := range d.levelFan[i] {
			h = sigUint(h, uint64(pid))
		}
		h = sigUint(h, uint64(len(d.edgeFan[i])))
		for _, sub := range d.edgeFan[i] {
			h = sigUint(h, uint64(sub.proc))
			h = sigUint(h, uint64(sub.edge))
		}
	}
	return h
}

// gangProcSig canonically hashes one process for whole-lane dedup, with
// identifiers resolved to what lowering reads instead of what the source
// calls them.
func gangProcSig(p *process, netIdx map[*net]int32) uint64 {
	if p.cont {
		h := sigUint(FNVOffset64, gsCont)
		h = gangSigLValue(h, p.lhs, p.scope, netIdx)
		rsc := p.rhsScope
		if rsc == nil {
			rsc = p.scope
		}
		return gangSigExpr(h, p.rhs, rsc, netIdx)
	}
	h := sigUint(FNVOffset64, gsBehavioral)
	return gangSigStmt(h, p.body, p.scope, netIdx)
}

// gangSigExpr folds one expression in rvalue position. Resolution mirrors
// compileRExpr and constFold: parameters shadow nets, a parameter folds as
// its constant value, a net folds as its index. An identifier resolving to
// neither keeps its name (elaboration rejects such processes anyway; the
// name-sensitive fallback just keeps the hash total).
func gangSigExpr(h uint64, e ast.Expr, sc *scope, netIdx map[*net]int32) uint64 {
	switch x := e.(type) {
	case nil:
		return sigUint(h, gsNil)
	case *ast.Ident:
		if v, ok := sc.params[x.Name]; ok {
			h = sigUint(h, gsParam)
			h = sigUint(h, uint64(v.Width()))
			return sigString(h, v.String())
		}
		if n, ok := sc.lookupNet(x.Name); ok {
			h = sigUint(h, gsNet)
			return sigUint(h, uint64(netIdx[n]))
		}
		h = sigUint(h, gsFreeIdent)
		return sigString(h, x.Name)
	case *ast.Number:
		v := numberValue(x)
		h = sigUint(h, gsNumber)
		h = sigUint(h, uint64(v.Width()))
		return sigString(h, v.String())
	case *ast.Unary:
		h = sigUint(h, gsUnary)
		h = sigUint(h, uint64(x.Op))
		return gangSigExpr(h, x.X, sc, netIdx)
	case *ast.Binary:
		h = sigUint(h, gsBinary)
		h = sigUint(h, uint64(x.Op))
		h = gangSigExpr(h, x.X, sc, netIdx)
		return gangSigExpr(h, x.Y, sc, netIdx)
	case *ast.Ternary:
		h = sigUint(h, gsTernary)
		h = gangSigExpr(h, x.Cond, sc, netIdx)
		h = gangSigExpr(h, x.Then, sc, netIdx)
		return gangSigExpr(h, x.Else, sc, netIdx)
	case *ast.Concat:
		h = sigUint(h, gsConcat)
		h = sigUint(h, uint64(len(x.Parts)))
		for _, part := range x.Parts {
			h = gangSigExpr(h, part, sc, netIdx)
		}
		return h
	case *ast.Repl:
		h = sigUint(h, gsRepl)
		h = gangSigExpr(h, x.Count, sc, netIdx)
		return gangSigExpr(h, x.Value, sc, netIdx)
	case *ast.Index:
		h = sigUint(h, gsIndex)
		h = gangSigExpr(h, x.X, sc, netIdx)
		return gangSigExpr(h, x.Idx, sc, netIdx)
	case *ast.PartSel:
		h = sigUint(h, gsPartSel)
		h = sigUint(h, uint64(x.Kind))
		h = gangSigExpr(h, x.X, sc, netIdx)
		h = gangSigExpr(h, x.A, sc, netIdx)
		return gangSigExpr(h, x.B, sc, netIdx)
	default:
		// Unknown node kind: no structural identity to claim.
		return sigUint(h, 0)
	}
}

// gangSigLValue folds one expression in lvalue position, where lowering
// (compileRLValue) resolves base identifiers as nets only — parameters never
// shadow an assignment target. Select bounds inside the lvalue are ordinary
// rvalue expressions.
func gangSigLValue(h uint64, e ast.Expr, sc *scope, netIdx map[*net]int32) uint64 {
	switch x := e.(type) {
	case nil:
		return sigUint(h, gsNil)
	case *ast.Ident:
		if n, ok := sc.lookupNet(x.Name); ok {
			h = sigUint(h, gsLValNet)
			return sigUint(h, uint64(netIdx[n]))
		}
		h = sigUint(h, gsLValFree)
		return sigString(h, x.Name)
	case *ast.Index:
		h = sigUint(h, gsIndex)
		h = gangSigLValue(h, x.X, sc, netIdx)
		return gangSigExpr(h, x.Idx, sc, netIdx)
	case *ast.PartSel:
		h = sigUint(h, gsPartSel)
		h = sigUint(h, uint64(x.Kind))
		h = gangSigLValue(h, x.X, sc, netIdx)
		h = gangSigExpr(h, x.A, sc, netIdx)
		return gangSigExpr(h, x.B, sc, netIdx)
	case *ast.Concat:
		h = sigUint(h, gsConcat)
		h = sigUint(h, uint64(len(x.Parts)))
		for _, part := range x.Parts {
			h = gangSigLValue(h, part, sc, netIdx)
		}
		return h
	default:
		return sigUint(h, 0)
	}
}

// gangSigStmt folds one statement. Block labels are skipped (lowering ignores
// them); everything that shapes execution — assignment blocking-ness, case
// kinds, default arms, loop spines — is folded.
func gangSigStmt(h uint64, st ast.Stmt, sc *scope, netIdx map[*net]int32) uint64 {
	switch x := st.(type) {
	case nil:
		return sigUint(h, gsNil)
	case *ast.Block:
		h = sigUint(h, gsBlock)
		h = sigUint(h, uint64(len(x.Stmts)))
		for _, sub := range x.Stmts {
			h = gangSigStmt(h, sub, sc, netIdx)
		}
		return h
	case *ast.AssignStmt:
		h = sigUint(h, gsAssign)
		if x.Blocking {
			h = sigUint(h, 1)
		} else {
			h = sigUint(h, 2)
		}
		h = gangSigLValue(h, x.LHS, sc, netIdx)
		return gangSigExpr(h, x.RHS, sc, netIdx)
	case *ast.If:
		h = sigUint(h, gsIf)
		h = gangSigExpr(h, x.Cond, sc, netIdx)
		h = gangSigStmt(h, x.Then, sc, netIdx)
		return gangSigStmt(h, x.Else, sc, netIdx)
	case *ast.Case:
		h = sigUint(h, gsCase)
		h = sigUint(h, uint64(x.Kind))
		h = gangSigExpr(h, x.Subject, sc, netIdx)
		h = sigUint(h, uint64(len(x.Items)))
		for _, item := range x.Items {
			if item.Labels == nil {
				h = sigUint(h, gsCaseDefault)
			} else {
				h = sigUint(h, gsCaseItem)
				h = sigUint(h, uint64(len(item.Labels)))
				for _, lab := range item.Labels {
					h = gangSigExpr(h, lab, sc, netIdx)
				}
			}
			h = gangSigStmt(h, item.Body, sc, netIdx)
		}
		return h
	case *ast.For:
		// Init and Step are concrete pointers: box them only when non-nil, so
		// a typed nil cannot slip past the interface nil case above.
		h = sigUint(h, gsFor)
		if x.Init == nil {
			h = sigUint(h, gsNil)
		} else {
			h = gangSigStmt(h, x.Init, sc, netIdx)
		}
		h = gangSigExpr(h, x.Cond, sc, netIdx)
		if x.Step == nil {
			h = sigUint(h, gsNil)
		} else {
			h = gangSigStmt(h, x.Step, sc, netIdx)
		}
		return gangSigStmt(h, x.Body, sc, netIdx)
	default:
		return sigUint(h, 0)
	}
}
