package gql

import (
	"testing"
	"time"
)

// FuzzParse covers the parser behind langs "gql" and "coregql": no input
// panics ParsePattern; parsing, printing and lowering to CoreGQL (ToCore)
// each take well under a second — a text nested past rpq.MaxNesting or
// unrolling past rpq.MaxPositions is refused as soon as the parser reaches
// the bound; and what parses prints to a text that parses back to a
// pattern that prints the same.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		// PAPER.md Examples 1–3
		"(x) (()-[z:a]->()){2} (y)", "(x) ()-[z:a]->() ()-[z:a]->() (y)",
		"(x) ()-[z:a]->() ()-[z1:a]->() (y)", "((x)-[:a]->(x)-[:a]->){2}",
		"(x) ((u)-[:a]->(v) WHERE u.date < v.date)* (y)",
		// README
		"(x)-[:Transfer]->(y)", "(x)-->(y)",
		// the parse tests' rows
		"(x)", "()", "(x:Account)", "(:Account)", "-->", "-[z:a]->", "-[:a]->", "-[z]->",
		"(x)-[z:a]->(y)", "(()-[z:a]->()){2}", "((x) | -[y:a]->)", "(x)(()-->())*(y)",
		"(()-->()){2,5}", "(()-->()){2,}", "(x)+?{1,}",
		"((x)-[e:Transfer]->(y) WHERE Account(x) AND e.amount >= 5000000 AND NOT x.isBlocked = 'yes')",
		"((x) WHERE x.owner = 'Mike' OR x.owner = 'Jay')", "((u)-[e]->(v) WHERE e.amount > 7.5)",
		"((x) WHERE NOT (x.k = 1 OR x.k <> -2) AND x.s = 'it\\'s')",
		// corner cases of "GQL and SQL/PGQ: Theoretical Models and Expressive
		// Power": partial bindings, a variable joined inside an iteration,
		// zero-length iterations, conditions under repetition
		"((x) | ())*", "(())*", "(() | -[e]->)*", "((x)-->(x))*", "((x){2})*",
		"((u)-[e]->(v) WHERE e.k < 1.0)+", "(x:L)((:L)-[:a]->)*(y:L)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		step := func(what string, run func()) {
			start := time.Now()
			run()
			if d := time.Since(start); d > time.Second {
				t.Fatalf("%d bytes took %v to %s", len(text), d, what)
			}
		}
		var p Pattern
		var err error
		step("parse", func() { p, err = ParsePattern(text) })
		if err != nil {
			return
		}
		var printed string
		step("print", func() { printed = p.String() })
		step("lower to CoreGQL", func() { _, _ = ToCore(p) })
		back, err := ParsePattern(printed)
		if err != nil {
			t.Fatalf("%q parses, but what it prints as, %q, does not: %v", text, printed, err)
		}
		if back.String() != printed {
			t.Fatalf("%q prints as %q, which parses to %q", text, printed, back)
		}
	})
}
