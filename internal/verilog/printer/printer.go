// Package printer renders AST nodes back to deterministic, readable Verilog
// source text. The mutation engine relies on it to materialize candidate
// code, and round-tripping through the parser is covered by tests.
//
// The Append* functions append to a caller's buffer, so hot callers (the
// canonical and normal keys, process signatures) can reuse one buffer and
// never build a string; the Print* functions are their string-returning
// conveniences. AppendNormal prints the normal form design keys hash.
package printer

import (
	"repro/internal/verilog/ast"
)

// Print renders a full compilation unit.
func Print(s *ast.Source) string { return string(AppendSource(nil, s)) }

// PrintModule renders one module.
func PrintModule(m *ast.Module) string { return string(AppendModule(nil, m)) }

// PrintExpr renders an expression.
func PrintExpr(e ast.Expr) string { return string(AppendExpr(nil, e)) }

// PrintStmt renders a statement at the given indent depth.
func PrintStmt(s ast.Stmt, depth int) string { return string(AppendStmt(nil, s, depth)) }

// AppendSource appends the rendering of a full compilation unit to dst.
func AppendSource(dst []byte, s *ast.Source) []byte {
	for i, m := range s.Modules {
		if i > 0 {
			dst = append(dst, '\n')
		}
		dst = AppendModule(dst, m)
	}
	return dst
}

// AppendModule appends the rendering of one module to dst.
func AppendModule(dst []byte, m *ast.Module) []byte {
	p := printer{b: dst}
	p.module(m)
	return p.b
}

// AppendExpr appends the rendering of an expression to dst.
func AppendExpr(dst []byte, e ast.Expr) []byte {
	p := printer{b: dst}
	p.expr(e, 0)
	return p.b
}

// AppendStmt appends the rendering of a statement at the given indent depth
// to dst.
func AppendStmt(dst []byte, s ast.Stmt, depth int) []byte {
	p := printer{b: dst}
	p.stmt(s, depth)
	return p.b
}

type printer struct {
	b    []byte
	norm *normScope // non-nil while printing a normal form (AppendNormal)
}

func (p *printer) str(s string) { p.b = append(p.b, s...) }

func (p *printer) indent(depth int) {
	for i := 0; i < depth; i++ {
		p.str("    ")
	}
}

func (p *printer) module(m *ast.Module) {
	p.str("module ")
	p.str(m.Name)
	if len(m.Ports) > 0 {
		p.str(" (\n")
		for i, port := range m.Ports {
			p.indent(1)
			p.str(port.Dir.String())
			if port.IsReg {
				p.str(" reg")
			}
			if port.Signed {
				p.str(" signed")
			}
			if port.Range != nil {
				p.str(" ")
				p.rng(port.Range)
			}
			p.str(" ")
			p.str(port.Name)
			if i < len(m.Ports)-1 {
				p.str(",")
			}
			p.str("\n")
		}
		p.str(")")
	}
	p.str(";\n")
	for _, item := range m.Items {
		p.item(item)
	}
	p.str("endmodule\n")
}

func (p *printer) rng(r *ast.Range) {
	p.str("[")
	p.expr(r.MSB, 0)
	p.str(":")
	p.expr(r.LSB, 0)
	p.str("]")
}

func (p *printer) item(item ast.Item) {
	switch it := item.(type) {
	case *ast.NetDecl:
		p.indent(1)
		p.str(it.Kind.String())
		if it.Signed {
			p.str(" signed")
		}
		if it.Range != nil {
			p.str(" ")
			p.rng(it.Range)
		}
		p.str(" ")
		for i, name := range it.Names {
			if i > 0 {
				p.str(", ")
			}
			p.name(name)
			if i < len(it.Init) && it.Init[i] != nil {
				p.str(" = ")
				p.expr(it.Init[i], 0)
			}
		}
		p.str(";\n")
	case *ast.ParamDecl:
		p.indent(1)
		if it.Local {
			p.str("localparam ")
		} else {
			p.str("parameter ")
		}
		if it.Range != nil {
			p.rng(it.Range)
			p.str(" ")
		}
		p.str(it.Name)
		p.str(" = ")
		p.expr(it.Value, 0)
		p.str(";\n")
	case *ast.ContAssign:
		p.indent(1)
		p.str("assign ")
		p.expr(it.LHS, 0)
		p.str(" = ")
		p.expr(it.RHS, 0)
		p.str(";\n")
	case *ast.Always:
		p.indent(1)
		p.str("always @(")
		if it.Star {
			p.str("*")
		} else {
			for i, ev := range it.Events {
				if i > 0 {
					p.str(" or ")
				}
				switch ev.Edge {
				case ast.EdgePos:
					p.str("posedge ")
				case ast.EdgeNeg:
					p.str("negedge ")
				}
				p.expr(ev.Sig, 0)
			}
		}
		p.str(")")
		p.bodyAfterHeader(it.Body)
	case *ast.Initial:
		p.indent(1)
		p.str("initial")
		p.bodyAfterHeader(it.Body)
	case *ast.Instance:
		p.indent(1)
		p.str(it.ModName)
		if len(it.ParamsBy) > 0 {
			p.str(" #(")
			p.conns(it.ParamsBy)
			p.str(")")
		}
		p.str(" ")
		p.str(it.Name)
		p.str(" (")
		p.conns(it.Conns)
		p.str(");\n")
	}
}

func (p *printer) conns(conns []ast.PortConn) {
	for i, c := range conns {
		if i > 0 {
			p.str(", ")
		}
		if c.Name != "" {
			p.str(".")
			p.str(c.Name)
			p.str("(")
			if c.Expr != nil {
				p.expr(c.Expr, 0)
			}
			p.str(")")
		} else {
			p.expr(c.Expr, 0)
		}
	}
}

// bodyAfterHeader prints a statement that follows an always/initial header,
// putting `begin` on the same line.
func (p *printer) bodyAfterHeader(s ast.Stmt) {
	if blk, ok := s.(*ast.Block); ok {
		p.str(" begin")
		if blk.Name != "" {
			p.str(" : ")
			p.str(blk.Name)
		}
		p.str("\n")
		for _, sub := range blk.Stmts {
			p.stmt(sub, 2)
		}
		p.indent(1)
		p.str("end\n")
		return
	}
	p.str("\n")
	p.stmt(s, 2)
}

func (p *printer) stmt(s ast.Stmt, depth int) {
	switch st := s.(type) {
	case *ast.Block:
		p.indent(depth)
		p.str("begin")
		if st.Name != "" {
			p.str(" : ")
			p.str(st.Name)
		}
		p.str("\n")
		for _, sub := range st.Stmts {
			p.stmt(sub, depth+1)
		}
		p.indent(depth)
		p.str("end\n")
	case *ast.AssignStmt:
		p.indent(depth)
		p.expr(st.LHS, 0)
		if st.Blocking {
			p.str(" = ")
		} else {
			p.str(" <= ")
		}
		p.expr(st.RHS, 0)
		p.str(";\n")
	case *ast.If:
		p.indent(depth)
		p.ifChain(st, depth)
	case *ast.Case:
		p.indent(depth)
		p.str(st.Kind.String())
		p.str(" (")
		p.expr(st.Subject, 0)
		p.str(")\n")
		for _, item := range st.Items {
			p.indent(depth + 1)
			if item.Labels == nil {
				p.str("default:")
			} else {
				for i, l := range item.Labels {
					if i > 0 {
						p.str(", ")
					}
					p.expr(l, 0)
				}
				p.str(":")
			}
			if blk, ok := item.Body.(*ast.Block); ok && len(blk.Stmts) != 1 {
				p.str("\n")
				p.stmt(item.Body, depth+2)
			} else {
				// A one-statement block or a bare statement prints inline
				// after the label, its trailing newlines trimmed to one.
				inline := item.Body
				if ok {
					inline = blk.Stmts[0]
				}
				p.str(" ")
				mark := len(p.b)
				p.stmt(inline, 0)
				for len(p.b) > mark && p.b[len(p.b)-1] == '\n' {
					p.b = p.b[:len(p.b)-1]
				}
				p.str("\n")
			}
		}
		p.indent(depth)
		p.str("endcase\n")
	case *ast.For:
		p.indent(depth)
		p.str("for (")
		p.expr(st.Init.LHS, 0)
		p.str(" = ")
		p.expr(st.Init.RHS, 0)
		p.str("; ")
		p.expr(st.Cond, 0)
		p.str("; ")
		p.expr(st.Step.LHS, 0)
		p.str(" = ")
		p.expr(st.Step.RHS, 0)
		p.str(")\n")
		p.stmt(st.Body, depth+1)
	}
}

// ifChain prints if/else-if chains without extra indentation pyramids.
// The caller has already printed the indent for the `if` keyword.
func (p *printer) ifChain(st *ast.If, depth int) {
	p.str("if (")
	p.expr(st.Cond, 0)
	p.str(")")
	p.branch(st.Then, depth)
	if st.Else != nil {
		p.indent(depth)
		p.str("else")
		if elif, ok := st.Else.(*ast.If); ok {
			p.str(" ")
			p.ifChain(elif, depth)
			return
		}
		p.branch(st.Else, depth)
	}
}

// branch prints the then/else body of an if, inlining blocks.
func (p *printer) branch(s ast.Stmt, depth int) {
	if blk, ok := s.(*ast.Block); ok {
		p.str(" begin\n")
		for _, sub := range blk.Stmts {
			p.stmt(sub, depth+1)
		}
		p.indent(depth)
		p.str("end\n")
		return
	}
	p.str("\n")
	p.stmt(s, depth+1)
}

// Operator precedence used to decide parenthesization; mirrors the parser's
// table.
func exprPrec(e ast.Expr) int {
	switch x := e.(type) {
	case *ast.Binary:
		switch x.Op {
		case ast.Mul, ast.Div, ast.Mod:
			return 10
		case ast.Add, ast.Sub:
			return 9
		case ast.Shl, ast.Shr, ast.AShl, ast.AShr:
			return 8
		case ast.Lt, ast.Leq, ast.Gt, ast.Geq:
			return 7
		case ast.Eq, ast.Neq, ast.CaseEq, ast.CaseNeq:
			return 6
		case ast.BitAnd:
			return 5
		case ast.BitXor, ast.BitXnor:
			return 4
		case ast.BitOr:
			return 3
		case ast.LogAnd:
			return 2
		case ast.LogOr:
			return 1
		}
	case *ast.Ternary:
		return 0
	case *ast.Unary:
		return 11
	}
	return 12 // primary
}

func (p *printer) expr(e ast.Expr, parentPrec int) {
	prec := exprPrec(e)
	paren := prec < parentPrec
	if paren {
		p.str("(")
	}
	switch x := e.(type) {
	case *ast.Ident:
		p.name(x.Name)
	case *ast.Number:
		if p.norm == nil || !p.normNumber(x) {
			p.str(x.Text)
		}
	case *ast.Unary:
		p.str(x.Op.String())
		// Parenthesize nested unary/binary operands of reductions for clarity.
		p.expr(x.X, 11+1)
	case *ast.Binary:
		if p.norm != nil && commutative(x.Op) {
			p.normCommutative(x)
			break
		}
		p.expr(x.X, prec)
		p.str(" ")
		p.str(x.Op.String())
		p.str(" ")
		p.expr(x.Y, prec+1)
	case *ast.Ternary:
		p.expr(x.Cond, 1)
		p.str(" ? ")
		p.expr(x.Then, 0)
		p.str(" : ")
		p.expr(x.Else, 0)
	case *ast.Concat:
		p.str("{")
		for i, part := range x.Parts {
			if i > 0 {
				p.str(", ")
			}
			p.expr(part, 0)
		}
		p.str("}")
	case *ast.Repl:
		p.str("{")
		p.expr(x.Count, 12)
		p.str("{")
		p.expr(x.Value, 0)
		p.str("}}")
	case *ast.Index:
		p.expr(x.X, 12)
		p.str("[")
		p.expr(x.Idx, 0)
		p.str("]")
	case *ast.PartSel:
		p.expr(x.X, 12)
		p.str("[")
		p.expr(x.A, 0)
		switch x.Kind {
		case ast.SelPlus:
			p.str(" +: ")
		case ast.SelMinus:
			p.str(" -: ")
		default:
			p.str(":")
		}
		p.expr(x.B, 0)
		p.str("]")
	}
	if paren {
		p.str(")")
	}
}
