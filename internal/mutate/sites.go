package mutate

import (
	"fmt"

	"repro/internal/memo"
	"repro/internal/verilog/ast"
)

// This file enumerates mutation sites as *paths* into the module instead of
// closures over a clone. Collection runs once per golden module (cached);
// each candidate then materializes its mutant by copying only the spine from
// the module root to the mutated nodes (pathcopy.go), sharing every
// untouched subtree with the golden. The enumeration order here is the
// contract the canonical-misconception mechanism depends on: site index i
// must mean the same mutation for every candidate of a task.

// step addresses one child of an AST node: f selects the field, i indexes
// into it when the field is a slice.
type step struct {
	f uint8
	i int32
}

// PathSite is one applicable mutation, located by the path from the module
// root to its anchor node. aux/aux2 carry kind-specific data resolved at
// collection time (operator alternative, event index, case-arm positions).
type PathSite struct {
	// Kind names the mutation operator (for diagnostics and tests).
	Kind string
	// Desc describes the concrete site.
	Desc string

	path []step
	aux  int
	aux2 int
}

// moduleSites is the cached per-module collection result.
type moduleSites struct {
	sites    []PathSite
	declared []string
}

// --- Site cache ------------------------------------------------------------
//
// Site collection is a pure function of the module, and the simulated LLM
// re-collects for every candidate of a task's pool (dozens per task, re-run
// per pipeline variant). Golden modules are parsed once and shared
// (eval.ParseCached), so a pointer-keyed memo turns all but the first
// collection into a map hit. Callers must treat cached modules as immutable,
// which Semantic guarantees by never mutating its input.

var siteMemo = memo.New[*ast.Module, *moduleSites](siteMemoCap)

const siteMemoCap = 1024

func cachedSites(m *ast.Module) *moduleSites {
	return siteMemo.Do(m, func() *moduleSites { return collectPathSites(m) })
}

// collectPathSites enumerates every semantic mutation applicable to the
// module, in the fixed historical order.
func collectPathSites(m *ast.Module) *moduleSites {
	c := &pcollector{declared: declaredNames(m)}
	for i, it := range m.Items {
		c.push(0, int32(i))
		switch x := it.(type) {
		case *ast.ContAssign:
			c.push(stepRHS, 0)
			c.exprSites(x.RHS, true)
			c.pop()
			c.push(stepLHS, 0)
			c.lhsSelectSites(x.LHS)
			c.pop()
		case *ast.Always:
			c.alwaysSites(x)
		case *ast.Instance:
			for ci := range x.Conns {
				if x.Conns[ci].Expr != nil {
					c.push(0, int32(ci))
					c.exprSites(x.Conns[ci].Expr, true)
					c.pop()
				}
			}
		}
		c.pop()
	}
	return &moduleSites{sites: c.sites, declared: c.declared}
}

// Child-field selectors. Binary nodes reuse RHS/LHS-style 0/1; three-field
// nodes add a third selector. getChild/setChild in pathcopy.go are the
// authoritative decoding.
const (
	stepRHS  uint8 = 0 // ContAssign.RHS, AssignStmt.RHS, Binary.X, Index.Idx, If/Ternary Cond, Case.Subject, For.Cond, Block/Concat/Module/Instance slice entry, CaseItem label, Unary.X, Repl.Value, PartSel.X, Always.Body
	stepLHS  uint8 = 1 // ContAssign.LHS, AssignStmt.LHS, Binary.Y, Index.X, If/Ternary Then, Case item, CaseItem.Body, For.Body
	stepElse uint8 = 2 // If/Ternary Else
)

type pcollector struct {
	sites    []PathSite
	declared []string
	path     []step
}

func (c *pcollector) push(f uint8, i int32) { c.path = append(c.path, step{f: f, i: i}) }
func (c *pcollector) pop()                  { c.path = c.path[:len(c.path)-1] }

func (c *pcollector) add(kind, desc string, aux, aux2 int) {
	c.sites = append(c.sites, PathSite{
		Kind: kind,
		Desc: desc,
		path: append([]step(nil), c.path...),
		aux:  aux,
		aux2: aux2,
	})
}

// exprSites collects mutation sites within the expression the current path
// points at. allowIdentSwap permits wrong-signal substitutions (RHS contexts
// only).
func (c *pcollector) exprSites(e ast.Expr, allowIdentSwap bool) {
	switch x := e.(type) {
	case *ast.Ident:
		if allowIdentSwap && len(c.declared) > 1 {
			c.add("wrong-signal", fmt.Sprintf("replace read of %q", x.Name), 0, 0)
		}
	case *ast.Number:
		c.numberSite(x)
	case *ast.Unary:
		if x.Op == ast.BitNot || x.Op == ast.LogicalNot {
			c.add("drop-invert", fmt.Sprintf("remove %s", x.Op), 0, 0)
		}
		c.push(stepRHS, 0)
		c.exprSites(x.X, allowIdentSwap)
		c.pop()
	case *ast.Binary:
		if alts, ok := binarySwaps[x.Op]; ok {
			alt := alts[0]
			c.add("wrong-operator", fmt.Sprintf("%s -> %s", x.Op, alt), int(alt), 0)
			if len(alts) > 1 {
				alt2 := alts[1]
				c.add("wrong-operator", fmt.Sprintf("%s -> %s", x.Op, alt2), int(alt2), 0)
			}
		}
		if x.Op == ast.Sub || x.Op == ast.Lt || x.Op == ast.Gt || x.Op == ast.Shl || x.Op == ast.Shr {
			c.add("swap-operands", fmt.Sprintf("swap operands of %s", x.Op), 0, 0)
		}
		c.push(stepRHS, 0)
		c.exprSites(x.X, allowIdentSwap)
		c.pop()
		c.push(stepLHS, 0)
		c.exprSites(x.Y, allowIdentSwap)
		c.pop()
	case *ast.Ternary:
		c.add("swap-branches", "swap ternary branches", 0, 0)
		c.push(stepRHS, 0)
		c.exprSites(x.Cond, allowIdentSwap)
		c.pop()
		c.push(stepLHS, 0)
		c.exprSites(x.Then, allowIdentSwap)
		c.pop()
		c.push(stepElse, 0)
		c.exprSites(x.Else, allowIdentSwap)
		c.pop()
	case *ast.Concat:
		if len(x.Parts) >= 2 {
			c.add("reorder-concat", "swap first two concat parts", 0, 0)
		}
		for i := range x.Parts {
			c.push(stepRHS, int32(i))
			c.exprSites(x.Parts[i], allowIdentSwap)
			c.pop()
		}
	case *ast.Repl:
		c.push(stepRHS, 0)
		c.exprSites(x.Value, allowIdentSwap)
		c.pop()
	case *ast.Index:
		c.push(stepRHS, 0)
		c.exprSites(x.Idx, allowIdentSwap)
		c.pop()
		c.push(stepLHS, 0)
		c.exprSites(x.X, false)
		c.pop()
	case *ast.PartSel:
		if x.Kind == ast.SelConst {
			_, okA := x.A.(*ast.Number)
			_, okB := x.B.(*ast.Number)
			if okA && okB {
				c.add("shift-slice", "shift part-select by one", 0, 0)
			}
		}
		c.push(stepRHS, 0)
		c.exprSites(x.X, false)
		c.pop()
	}
}

// numberSite perturbs an integer literal.
func (c *pcollector) numberSite(n *ast.Number) {
	if anySet(n.XZ) {
		return // leave x/z literals alone
	}
	c.add("wrong-constant", fmt.Sprintf("perturb literal %s", n.Text), 0, 0)
}

// lhsSelectSites allows off-by-one mutations of constant selects on lvalues.
func (c *pcollector) lhsSelectSites(lhs ast.Expr) {
	switch x := lhs.(type) {
	case *ast.PartSel:
		if x.Kind == ast.SelConst {
			_, okA := x.A.(*ast.Number)
			b, okB := x.B.(*ast.Number)
			if okA && okB && b.Val[0] > 0 {
				c.add("shift-lhs-slice", "shift lvalue part-select down by one", 0, 0)
			}
		}
	case *ast.Concat:
		for i, p := range x.Parts {
			c.push(stepRHS, int32(i))
			c.lhsSelectSites(p)
			c.pop()
		}
	}
}

// alwaysSites collects sites in an always block: edge polarity, statement
// structure and nested expressions.
func (c *pcollector) alwaysSites(a *ast.Always) {
	hasEdge := false
	for i := range a.Events {
		if a.Events[i].Edge == ast.EdgeNone {
			continue
		}
		hasEdge = true
		c.add("wrong-edge", "flip event edge", i, 0)
	}
	c.push(stepRHS, 0) // Always.Body
	c.stmtSites(a.Body, hasEdge)
	c.pop()
}

func (c *pcollector) stmtSites(s ast.Stmt, inEdge bool) {
	switch x := s.(type) {
	case *ast.Block:
		for i := range x.Stmts {
			c.push(stepRHS, int32(i))
			c.stmtSites(x.Stmts[i], inEdge)
			c.pop()
		}
		if len(x.Stmts) >= 2 && reorderMatters(x.Stmts[0], x.Stmts[1]) {
			// Reordering statements is a real bug for blocking sequences;
			// swapping independent non-blocking assignments would be a
			// behavioral no-op, so those sites are skipped.
			c.add("reorder-stmts", "swap first two statements in block", 0, 0)
		}
	case *ast.AssignStmt:
		if inEdge && !x.Blocking {
			c.add("blocking-swap", "use blocking assignment in clocked block", 0, 0)
		}
		c.push(stepRHS, 0)
		c.exprSites(x.RHS, true)
		c.pop()
		c.push(stepLHS, 0)
		c.lhsSelectSites(x.LHS)
		c.pop()
	case *ast.If:
		c.add("negate-cond", "negate if condition", 0, 0)
		if x.Else != nil && !emptyStmt(x.Else) {
			if _, isElseIf := x.Else.(*ast.If); !isElseIf {
				c.add("drop-else", "remove else branch", 0, 0)
			}
		}
		c.push(stepRHS, 0)
		c.exprSites(x.Cond, true)
		c.pop()
		c.push(stepLHS, 0)
		c.stmtSites(x.Then, inEdge)
		c.pop()
		if x.Else != nil {
			c.push(stepElse, 0)
			c.stmtSites(x.Else, inEdge)
			c.pop()
		}
	case *ast.Case:
		var nonDefault []int
		for i, it := range x.Items {
			if it.Labels != nil {
				nonDefault = append(nonDefault, i)
			}
		}
		if len(nonDefault) >= 2 {
			c.add("swap-case-bodies", "swap bodies of first two case arms",
				nonDefault[0], nonDefault[1])
		}
		if len(nonDefault) >= 2 {
			c.add("drop-case-arm", "remove last labeled case arm",
				nonDefault[len(nonDefault)-1], 0)
		}
		for i, it := range x.Items {
			c.push(stepLHS, int32(i)) // Case.Items[i]
			for li := range it.Labels {
				c.push(stepRHS, int32(li)) // CaseItem.Labels[li]
				c.exprSites(it.Labels[li], false)
				c.pop()
			}
			c.push(stepLHS, 0) // CaseItem.Body
			c.stmtSites(it.Body, inEdge)
			c.pop()
			c.pop()
		}
		c.push(stepRHS, 0) // Case.Subject
		c.exprSites(x.Subject, true)
		c.pop()
	case *ast.For:
		c.push(stepRHS, 0)
		c.exprSites(x.Cond, false)
		c.pop()
		c.push(stepLHS, 0)
		c.stmtSites(x.Body, inEdge)
		c.pop()
	}
}
