package gql

import (
	"strings"
	"testing"
	"time"

	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/rpq"
)

func TestParsePatternBasics(t *testing.T) {
	tests := []struct{ in, want string }{
		{"(x)", "(x)"},
		{"()", "()"},
		{"(x:Account)", "(x:Account)"},
		{"(:Account)", "(:Account)"},
		{"-->", "-->"},
		{"-[z:a]->", "-[z:a]->"},
		{"-[:a]->", "-[:a]->"},
		{"-[z]->", "-[z]->"},
		{"(x)-[z:a]->(y)", "(x)-[z:a]->(y)"},
		{"(()-[z:a]->()){2}", "(()-[z:a]->()){2}"},
		{"((x) | -[y:a]->)", "((x) + -[y:a]->)"},
		{"(x)(()-->())*(y)", "(x)(()-->())*(y)"},
		{"(()-->()){2,5}", "(()-->()){2,5}"},
		{"(()-->()){2,}", "(()-->()){2,}"},
	}
	for _, tc := range tests {
		p, err := ParsePattern(tc.in)
		if err != nil {
			t.Errorf("ParsePattern(%q): %v", tc.in, err)
			continue
		}
		if got := p.String(); got != tc.want {
			t.Errorf("ParsePattern(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestParsePatternErrors(t *testing.T) {
	bad := []string{
		"", "(", "(x", "(x:)", "-[", "-[z", "-[z:a]",
		"(x){2,1}", "(x)-[z:a]->(y) WHERE", "((x) WHERE q.k < )",
		"(x y)", "{2}",
	}
	for _, in := range bad {
		if _, err := ParsePattern(in); err == nil {
			t.Errorf("ParsePattern(%q) should fail", in)
		}
	}
}

// TestParseExample1 parses and evaluates the actual Example 1 pattern text.
func TestParseExample1(t *testing.T) {
	g := graph.NewBuilder().
		AddNode("u", "", nil).AddNode("v", "", nil).AddNode("w", "", nil).
		AddEdge("e1", "a", "u", "v", nil).
		AddEdge("e2", "a", "v", "w", nil).
		MustBuild()
	p := MustParsePattern("(x) (()-[z:a]->()){2} (y)")
	ms, err := EvalPattern(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full := 0
	for _, m := range ms {
		if m.Path.Len() == 2 {
			full++
			if z := m.B["z"]; !z.IsList || len(z.List) != 2 {
				t.Errorf("z = %v", z.Format(g))
			}
		}
	}
	if full != 1 {
		t.Errorf("full matches = %d, want 1", full)
	}
}

// TestParseExample3 parses the WHERE pattern of Example 3 and checks the
// increasing-node-dates semantics.
func TestParseExample3(t *testing.T) {
	up := gen.DateNodePath("a", []int64{1, 2, 3, 4})
	p := MustParsePattern("(x) ((u)-[:a]->(v) WHERE u.date < v.date)* (y)")
	ms, err := EvalPattern(up, p, Options{MaxLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range ms {
		if m.Path.Len() == 3 {
			found = true
		}
	}
	if !found {
		t.Error("increasing node dates should match end-to-end")
	}
	down := gen.DateNodePath("a", []int64{3, 4, 1, 2})
	ms, _ = EvalPattern(down, p, Options{MaxLen: 4})
	for _, m := range ms {
		if m.Path.Len() == 3 {
			t.Error("3,4,1,2 must not match end-to-end")
		}
	}
}

func TestParseConditionForms(t *testing.T) {
	g := gen.BankProperty()
	// Label test, constant comparisons, AND/OR/NOT.
	p := MustParsePattern(
		"((x)-[e:Transfer]->(y) WHERE Account(x) AND e.amount >= 5000000 AND NOT x.isBlocked = 'yes')")
	ms, err := EvalPattern(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Expensive transfers (≥5M) from unblocked accounts:
	// t7 (8M, a3), t8 (7M, a6), t9 (5M from a4 — blocked), t10 (6M, a6), t3 (5M from a2 — blocked).
	want := map[string]bool{"t7": true, "t8": true, "t10": true}
	got := map[string]bool{}
	for _, m := range ms {
		got[string(g.Edge(m.B["e"].One.Index()).ID)] = true
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for id := range want {
		if !got[id] {
			t.Errorf("missing %s", id)
		}
	}
	// OR form.
	p2 := MustParsePattern("((x) WHERE x.owner = 'Mike' OR x.owner = 'Jay')")
	ms2, err := EvalPattern(g, p2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms2) != 2 {
		t.Errorf("Mike-or-Jay accounts = %d, want 2", len(ms2))
	}
	// Property-to-property and float comparisons.
	p3 := MustParsePattern("((u)-[e]->(v) WHERE e.amount > 7.5)")
	if _, err := EvalPattern(g, p3, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestParsedUnionPartialBindings(t *testing.T) {
	g := gen.APath(1, "a")
	p := MustParsePattern("((x) | -[y:a]->)")
	ms, err := EvalPattern(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	domains := map[string]bool{}
	for _, m := range ms {
		for v := range m.B {
			domains[v] = true
		}
	}
	if !domains["x"] || !domains["y"] {
		t.Errorf("expected both branch variables, got %v", domains)
	}
}

// TestParsePatternNestingBound: groups nest at most rpq.MaxNesting deep. A
// pattern one group past the bound is refused, and so is half a megabyte of
// '(' — as soon as the parser reaches the bound, not after descending
// through all of it.
func TestParsePatternNestingBound(t *testing.T) {
	nested := func(depth int) string {
		return strings.Repeat("(", depth) + "()-[:a]->()" + strings.Repeat(")", depth)
	}
	if _, err := ParsePattern(nested(rpq.MaxNesting)); err != nil {
		t.Fatalf("%d groups deep: %v", rpq.MaxNesting, err)
	}
	for _, text := range []string{nested(rpq.MaxNesting + 1), strings.Repeat("(", 1<<19)} {
		start := time.Now()
		_, err := ParsePattern(text)
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Errorf("%d bytes past the bound: refused after %v, want under 100ms", len(text), took)
		}
		if err == nil || !strings.Contains(err.Error(), "nest 1001 deep") || !strings.Contains(err.Error(), "the bound is 1000") {
			t.Errorf("%d bytes past the bound: %v", len(text), err)
		}
	}
}
