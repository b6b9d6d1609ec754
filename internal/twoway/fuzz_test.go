package twoway

import (
	"testing"
	"time"
)

// FuzzParse covers the parser of every served 2RPQ: no input panics Parse;
// parsing and printing take under a second; and what parses prints to a
// text that parses back to an expression that prints the same.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		// README and bench/'s allpairs-sweep
		"owner ~owner", "(a|~a)* z", "~Transfer Transfer",
		// what the 2RPQ lexer once read apart from the RPQ lexer
		"'has-part'", "a.b", "!a", "a{18446744073709551617}",
		// the other tiers' marks, and the atoms '~' applies to
		"a^z", "~_ ~!{a,'b c'}", "~(a)", "(~a)*++++++++++++",
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
