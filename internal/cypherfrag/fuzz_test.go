package cypherfrag

import (
	"testing"
	"time"
)

// FuzzParse covers the parser behind lang "cypher": no input panics Parse;
// parsing, printing and parsing the print back take well under a second —
// a text nested past rpq.MaxNesting is refused before the parser descends
// through it (the committed corpus holds one); and what parses prints to a
// text that parses back to a pattern that prints the same.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		// Proposition 22's fragment: label disjunctions, starred ones,
		// concatenation and binary union
		"-[:a]->", "-[:(a)*]->", "-[:a|b]->", "-[:(a|b)*]->",
		"-[:a]-> -[:a]->", "(-[:a]-> + -[:(a)*]->)", "-[:a]-> (-[:(a)*]-> + -[:a]->)",
		"(-[:a]-> -[:a]-> + -[:(a)*]-> -[:a]->) -[:(b|a)*]->",
		// bench/'s short-reads text, juxtaposed without a space
		"-[:b]->-[:a]->",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		start := time.Now()
		defer func() {
			if d := time.Since(start); d > time.Second {
				t.Fatalf("%d bytes took %v to parse and print", len(text), d)
			}
		}()
		p, err := Parse(text)
		if err != nil {
			return
		}
		printed := p.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q parses, but what it prints as, %q, does not: %v", text, printed, err)
		}
		if back.String() != printed {
			t.Fatalf("%q prints as %q, which parses to %q", text, printed, back)
		}
	})
}
