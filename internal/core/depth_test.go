package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/verilog/parser"
)

// deepBody wraps a continuous assignment to y in a two-input top module.
func deepBody(rhs string) string {
	return "module top_module(input a, output y);\n    assign y = " + rhs + ";\nendmodule\n"
}

// TestValidateRejectsDeepNesting is the regression test for hostile nesting:
// a 2 MB candidate nested 10^6 deep used to overflow the goroutine stack in
// the recursive-descent parser, a fatal error no recover can confine. The
// parser now refuses nesting past its bound with a syntax error, promptly,
// and a body at the bound still validates.
func TestValidateRejectsDeepNesting(t *testing.T) {
	const deep = 1_000_000
	hostile := map[string]string{
		"parens": deepBody(strings.Repeat("(", deep) + "a" + strings.Repeat(")", deep)),
		"tildes": deepBody(strings.Repeat("~", deep) + "a"),
	}
	for name, code := range hostile {
		t.Run(name, func(t *testing.T) {
			start := time.Now()
			if _, ok := ValidateCandidate(code); ok {
				t.Fatal("candidate nested 10^6 deep validated")
			}
			if el := time.Since(start); el > 10*time.Second {
				t.Fatalf("rejecting the candidate took %v", el)
			}
			_, err := parser.Parse(code)
			if !errors.Is(err, parser.ErrSyntax) || !strings.Contains(err.Error(), "nesting deeper than 1024 levels") {
				t.Fatalf("Parse error = %v, want a syntax error naming the 1024-level bound", err)
			}
		})
	}

	atBound := deepBody(strings.Repeat("(", 1024) + "a" + strings.Repeat(")", 1024))
	if _, ok := ValidateCandidate(atBound); !ok {
		t.Fatal("candidate nested 1024 deep must still validate")
	}
}
