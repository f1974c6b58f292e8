package printer

import (
	"bytes"
	"crypto/sha256"
	"strconv"
	"strings"
	"sync"

	"repro/internal/verilog/ast"
)

// AppendNormal appends the normal form of s to dst: the printed source with
// three spellings a design can change without changing its behaviour made
// uniform, in every module.
//
//   - Non-port NetDecl names print as positional sentinels \x01<k>\x01,
//     numbered in order of first declaration, so consistently renamed
//     internal nets print alike. Names that are also ports, parameters or
//     instances keep their spelling.
//   - Sized two-state literals of width at most 64 print as width,
//     signedness and hex value (4'd10, 4'ha and 4'b1010 all print 4'ha).
//   - The two operands of +, &, | and ^ print bracketed by \x02 and \x03,
//     longer first and equal lengths in byte order, so swapped operands
//     print alike. An operand whose print exceeds normFoldLen prints as
//     its SHA-256 instead.
//
// Nothing else is normalized: if-inversion is unsound under X (if (x) and
// if (!x) both take the else branch), declaration order fixes the net
// layout, and the mutators never reassociate or swap other operators. The
// output is a key, never parsed back. Ordering operands longer first keeps
// the left-deep trees flat operator chains parse into from being rotated at
// every level, and folding long operands bounds each rotation, so the print
// stays linear in the source.
func AppendNormal(dst []byte, s *ast.Source) []byte {
	ns := normPool.Get().(*normScope)
	p := printer{b: dst, norm: ns}
	pool := true
	for i, m := range s.Modules {
		if i > 0 {
			p.str("\n")
		}
		ns.bind(m)
		pool = pool && len(ns.names) <= normPoolMaxNames
		p.module(m)
	}
	if pool {
		clear(ns.names)
		normPool.Put(ns)
	}
	return p.b
}

// normScope maps one module's renamable net names to their sentinel index;
// -1 marks a name that keeps its spelling. Scopes are pooled so a normal
// print allocates no map.
type normScope struct {
	names map[string]int
}

var normPool = sync.Pool{New: func() any { return &normScope{names: make(map[string]int)} }}

// normPoolMaxNames bounds the scopes returned to the pool, so one huge
// candidate cannot pin its name table for the life of the process.
const normPoolMaxNames = 1024

// bind loads m's rename table. Ports, parameters and instances are fixed
// first, so a net sharing one of their names is never renamed; a name
// declared twice keeps its first index, so the sentinels stay one per name.
func (ns *normScope) bind(m *ast.Module) {
	clear(ns.names)
	for _, port := range m.Ports {
		ns.names[port.Name] = -1
	}
	for _, it := range m.Items {
		switch it := it.(type) {
		case *ast.ParamDecl:
			ns.names[it.Name] = -1
		case *ast.Instance:
			ns.names[it.Name] = -1
		}
	}
	k := 0
	for _, it := range m.Items {
		d, ok := it.(*ast.NetDecl)
		if !ok {
			continue
		}
		for _, name := range d.Names {
			if _, seen := ns.names[name]; !seen {
				ns.names[name] = k
				k++
			}
		}
	}
}

// name prints a net or identifier name, as its sentinel when renamed.
func (p *printer) name(s string) {
	if p.norm != nil {
		if k, ok := p.norm.names[s]; ok && k >= 0 {
			p.b = append(p.b, '\x01')
			p.b = strconv.AppendInt(p.b, int64(k), 10)
			p.b = append(p.b, '\x01')
			return
		}
	}
	p.str(s)
}

// normNumber prints a sized two-state literal of width at most 64 as
// <width>'[s]h<hex>, reporting false for any other literal.
func (p *printer) normNumber(n *ast.Number) bool {
	if n.Width <= 0 || n.Width > 64 || len(n.Val) != 1 {
		return false
	}
	for _, w := range n.XZ {
		if w != 0 {
			return false
		}
	}
	p.b = strconv.AppendInt(p.b, int64(n.Width), 10)
	p.b = append(p.b, '\'')
	if q := strings.IndexByte(n.Text, '\''); q >= 0 && q+1 < len(n.Text) && (n.Text[q+1] == 's' || n.Text[q+1] == 'S') {
		p.b = append(p.b, 's')
	}
	p.b = append(p.b, 'h')
	p.b = strconv.AppendUint(p.b, n.Val[0], 16)
	return true
}

// commutative reports whether the normal form orders op's operands.
func commutative(op ast.BinaryOp) bool {
	switch op {
	case ast.Add, ast.BitAnd, ast.BitOr, ast.BitXor:
		return true
	}
	return false
}

// normCommutative prints x as op \x02X\x03\x02Y\x03 with the bracketed
// operands in normal order. Both are printed first and then swapped in
// place with three reversals, so ordering needs no scratch buffer.
func (p *printer) normCommutative(x *ast.Binary) {
	p.str(x.Op.String())
	a := len(p.b)
	p.normOperand(x.X)
	m := len(p.b)
	p.normOperand(x.Y)
	l, r := p.b[a:m], p.b[m:]
	if len(r) > len(l) || (len(r) == len(l) && bytes.Compare(r, l) < 0) {
		reverse(p.b[a:])
		reverse(p.b[a : a+len(r)])
		reverse(p.b[a+len(r):])
	}
}

// normFoldLen bounds a printed commutative operand: a longer one prints as
// \x04 and the SHA-256 of its print. Ordering then moves at most a few KiB
// per node, and every byte is hashed or moved a bounded number of times,
// so the normal print stays linear however deeply the operators nest. No
// realistic candidate has an operand this long.
const normFoldLen = 1024

// normOperand prints e bracketed by \x02 and \x03, folded to its digest
// when the print exceeds normFoldLen. An unfolded print never holds \x04,
// so a folded operand cannot collide with one.
func (p *printer) normOperand(e ast.Expr) {
	start := len(p.b)
	p.b = append(p.b, '\x02')
	p.expr(e, 0)
	if len(p.b)-start > normFoldLen {
		sum := sha256.Sum256(p.b[start+1:])
		p.b = append(append(p.b[:start+1], '\x04'), sum[:]...)
	}
	p.b = append(p.b, '\x03')
}

func reverse(b []byte) {
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
}
