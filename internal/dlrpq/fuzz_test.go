package dlrpq

import (
	"testing"
	"time"
)

// FuzzParse covers the parser of every served dl-RPQ: no input panics
// Parse; parsing and printing take under a second; and what parses prints
// to a text that parses back to an expression that prints the same.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		// PAPER.md Example 21
		"(a^z)(x := date) { [_](a^z)(date > x)(x := date) }*",
		"(_^z) { [x := date](_^z)[date > x] }* [_]",
		// names the lexer does not read as identifiers, and floats
		"('my label')", "(x := 'a b')", "[!{'a b',c}]", "(amount < 4.5e6)", "(amount < 0.000001)", "(amount < 4.5e+06)", "{eps}*",
		// README
		"() {[Transfer]()}* [Transfer][amount < 4500000] () {[Transfer]()}*",
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
		e, err := Parse(text)
		if err != nil {
			return
		}
		printed := e.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q parses, but what it prints as, %q, does not: %v", text, printed, err)
		}
		if back.String() != printed {
			t.Fatalf("%q prints as %q, which parses to %q", text, printed, back)
		}
	})
}
