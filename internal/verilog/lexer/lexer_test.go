package lexer

import (
	"testing"

	"repro/internal/verilog/token"
)

func kinds(src string) []token.Kind {
	l := New(src)
	var out []token.Kind
	for {
		t := l.Next()
		if t.Kind == token.EOF {
			return out
		}
		out = append(out, t.Kind)
	}
}

func TestOperators(t *testing.T) {
	cases := map[string]token.Kind{
		"(": token.LParen, ")": token.RParen, "[": token.LBrack, "]": token.RBrack,
		"{": token.LBrace, "}": token.RBrace, ",": token.Comma, ";": token.Semi,
		":": token.Colon, ".": token.Dot, "#": token.Hash, "@": token.At,
		"?": token.Question, "=": token.Assign, "+": token.Plus, "-": token.Minus,
		"*": token.Star, "/": token.Slash, "%": token.Percent,
		"&": token.Amp, "&&": token.AmpAmp, "|": token.Pipe, "||": token.PipePipe,
		"^": token.Caret, "~^": token.TildeCaret, "^~": token.TildeCaret,
		"~&": token.TildeAmp, "~|": token.TildePipe, "~": token.Tilde,
		"!": token.Bang, "==": token.Eq, "!=": token.Neq, "===": token.CaseEq,
		"!==": token.CaseNeq, "<": token.Lt, "<=": token.Leq, ">": token.Gt,
		">=": token.Geq, "<<": token.Shl, ">>": token.Shr,
		"<<<": token.AShl, ">>>": token.AShr, "+:": token.PlusColon, "-:": token.MinusColon,
	}
	for src, want := range cases {
		got := kinds(src)
		if len(got) != 1 || got[0] != want {
			t.Errorf("lex %q = %v, want [%v]", src, got, want)
		}
	}
}

func TestKeywordsVsIdents(t *testing.T) {
	got := kinds("module foo endmodule always begin end if else case endcase wire reg")
	want := []token.Kind{
		token.KwModule, token.Ident, token.KwEndmodule, token.KwAlways,
		token.KwBegin, token.KwEnd, token.KwIf, token.KwElse,
		token.KwCase, token.KwEndcase, token.KwWire, token.KwReg,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNumbers(t *testing.T) {
	for _, src := range []string{
		"42", "0", "8'hFF", "4'b1010", "4'b1x0z", "'b0", "12'o777",
		"16'd65535", "4'sb11", "1_000", "8'b1010_1010", "4'b??01",
	} {
		l := New(src)
		tok := l.Next()
		if tok.Kind != token.Number {
			t.Errorf("lex %q: kind %v, want Number", src, tok.Kind)
		}
		if tok.Text != src {
			t.Errorf("lex %q: text %q", src, tok.Text)
		}
		if len(l.Errors()) != 0 {
			t.Errorf("lex %q: errors %v", src, l.Errors())
		}
	}
}

func TestBadNumbers(t *testing.T) {
	for _, src := range []string{"8'q1", "4'b"} {
		l := New(src)
		tok := l.Next()
		if tok.Kind != token.Illegal {
			t.Errorf("lex %q: kind %v, want Illegal", src, tok.Kind)
		}
		if len(l.Errors()) == 0 {
			t.Errorf("lex %q: expected error", src)
		}
	}
}

func TestComments(t *testing.T) {
	src := `
// line comment with module keyword
a /* block
comment */ b
`
	got := kinds(src)
	if len(got) != 2 || got[0] != token.Ident || got[1] != token.Ident {
		t.Fatalf("got %v, want two idents", got)
	}
}

func TestUnterminatedBlockComment(t *testing.T) {
	l := New("a /* never closed")
	if tok := l.Next(); tok.Kind != token.Ident {
		t.Fatalf("first token %v", tok)
	}
	if tok := l.Next(); tok.Kind != token.EOF {
		t.Fatalf("second token %v, want EOF", tok)
	}
	if len(l.Errors()) == 0 {
		t.Error("expected unterminated-comment error")
	}
}

func TestPositions(t *testing.T) {
	l := New("a\n  b")
	ta := l.Next()
	tb := l.Next()
	if ta.Pos.Line != 1 || ta.Pos.Col != 1 {
		t.Errorf("a at %v, want 1:1", ta.Pos)
	}
	if tb.Pos.Line != 2 || tb.Pos.Col != 3 {
		t.Errorf("b at %v, want 2:3", tb.Pos)
	}
}

func TestSysID(t *testing.T) {
	l := New("$display")
	tok := l.Next()
	if tok.Kind != token.SysID || tok.Text != "$display" {
		t.Errorf("got %v %q", tok.Kind, tok.Text)
	}
}

func TestUnexpectedChar(t *testing.T) {
	l := New("`define")
	tok := l.Next()
	if tok.Kind != token.Illegal {
		t.Errorf("got %v, want Illegal", tok.Kind)
	}
}

func TestEOFForever(t *testing.T) {
	l := New("")
	for i := 0; i < 3; i++ {
		if tok := l.Next(); tok.Kind != token.EOF {
			t.Fatalf("call %d: %v", i, tok.Kind)
		}
	}
}

func TestNextEndsWithEOF(t *testing.T) {
	l := New("a b")
	var kinds []token.Kind
	for {
		tok := l.Next()
		kinds = append(kinds, tok.Kind)
		if tok.Kind == token.EOF || len(kinds) > 3 {
			break
		}
	}
	if len(kinds) != 3 || kinds[0] != token.Ident || kinds[1] != token.Ident || kinds[2] != token.EOF {
		t.Fatalf("Next sequence = %v, want [Ident Ident EOF]", kinds)
	}
}
