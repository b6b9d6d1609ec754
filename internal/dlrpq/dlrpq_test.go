package dlrpq

import (
	"errors"
	"strings"
	"testing"

	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/rpq"
)

func TestParseAndString(t *testing.T) {
	tests := []struct{ in, want string }{
		{"(a)", "(a)"},
		{"[a]", "[a]"},
		{"(a^z)", "(a^z)"},
		{"[a^z]", "[a^z]"},
		{"()", "()"},
		{"[]", "[]"},
		{"(_^z)", "(_^z)"},
		{"[!{a,b}]", "[!{a,b}]"},
		{"(x := date)", "(x := date)"},
		{"[date > x]", "[date > x]"},
		{"(amount < 4500000)", "(amount < 4500000)"},
		{"(owner = 'Megan')", "(owner = 'Megan')"},
		{"(a)[b](c)", "(a) [b] (c)"},
		{"{[a]()}* (b)", "{[a] ()}* (b)"},
		{"(a) | [b]", "(a) | [b]"},
		{"[a]{2,3}", "[a]{2,3}"},
		{"eps", "eps"},
		{"{(a) | [b]}*", "{(a) | [b]}*"},
		{"{(a) [b]}{2,3} eps", "{(a) [b]}{2,3} eps"},
		{"{(a)|{[b](c)}+}? [d]", "{(a) | {[b] (c)}+}? [d]"},
	}
	for _, tc := range tests {
		e, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if got := e.String(); got != tc.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
		// Round trip.
		e2, err := Parse(e.String())
		if err != nil {
			t.Errorf("reparse %q: %v", e.String(), err)
			continue
		}
		if e2.String() != e.String() {
			t.Errorf("round trip %q -> %q", e.String(), e2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "(", "(a", "[a", "a", "(a))", "(x :=)", "(date >)",
		"(a^)", "{(a)", "[a]{3,1}", "(!{)", "(a) |",
		// a count is digits: no sign, no fraction
		"[a]{2,-1}", "[a]{-2}", "(x){-1}", "[a]{2.5}",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestVarsAndDataVars(t *testing.T) {
	e := MustParse("(a^z)(x := date) { [_^w](date > x)(x := date) }*")
	if got := Vars(e); len(got) != 2 || got[0] != "w" || got[1] != "z" {
		t.Errorf("Vars = %v", got)
	}
	if got := DataVars(e); len(got) != 1 || got[0] != "x" {
		t.Errorf("DataVars = %v", got)
	}
}

// TestNodeAtomsCollapse: consecutive node atoms match the same node, like
// (a^z)(date < x)(x := date) in Section 3.2.1.
func TestNodeAtomsCollapse(t *testing.T) {
	g := graph.NewBuilder().
		AddNode("n", "a", graph.Props{"date": graph.Int(5)}).
		MustBuild()
	// (a^z)(date > 3): both atoms on the single node n.
	res, err := EvalBetween(g, MustParse("(a^z)(date > 3)"), 0, 0, eval.All, Options{MaxLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %d, want 1", len(res))
	}
	if res[0].Path.NumObjects() != 1 {
		t.Errorf("collapse failed: path has %d objects", res[0].Path.NumObjects())
	}
	if got := res[0].Binding.Format(g); got != "{z -> list(n)}" {
		t.Errorf("binding = %s", got)
	}
	// Failing test: date > 7.
	res, err = EvalBetween(g, MustParse("(a^z)(date > 7)"), 0, 0, eval.All, Options{MaxLen: 1})
	if err != nil || len(res) != 0 {
		t.Errorf("date > 7 should not match: %d results, err %v", len(res), err)
	}
}

// TestEdgeAtomsCollapse: the symmetric treatment — [a^z][date < x][x := date]
// is matched by a single edge (the paper contrasts this with GQL).
func TestEdgeAtomsCollapse(t *testing.T) {
	g := graph.NewBuilder().
		AddNode("u", "", nil).AddNode("v", "", nil).
		AddEdge("e", "a", "u", "v", graph.Props{"date": graph.Int(9)}).
		MustBuild()
	res, err := EvalBetween(g, MustParse("[a^z][date > 5]"), g.MustNode("u"), g.MustNode("v"),
		eval.All, Options{MaxLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %d, want 1", len(res))
	}
	if res[0].Path.NumObjects() != 1 || !res[0].Path.Object(0).IsEdge() {
		t.Errorf("edge collapse failed: %s", res[0].Path.Format(g))
	}
	if got := res[0].Binding.Format(g); got != "{z -> list(e)}" {
		t.Errorf("binding = %s", got)
	}
}

// TestExample21Nodes: increasing date values on nodes.
func TestExample21Nodes(t *testing.T) {
	inc := MustParse("(_^z)(x := date) { [_](_^z)(date > x)(x := date) }*")
	up := gen.DateNodePath("a", []int64{1, 2, 3, 4})
	res, err := EvalBetween(up, inc, up.MustNode("v0"), up.MustNode("v3"), eval.All, Options{MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("increasing node dates: %d results, want 1", len(res))
	}
	if got := len(res[0].Binding.Get("z")); got != 4 {
		t.Errorf("z collected %d nodes, want 4", got)
	}
	down := gen.DateNodePath("a", []int64{3, 4, 1, 2})
	res, err = EvalBetween(down, inc, down.MustNode("v0"), down.MustNode("v3"), eval.All, Options{MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("3,4,1,2 node dates must not match end-to-end, got %d results", len(res))
	}
}

// TestExample21Edges: the same property on edges — expressible thanks to
// symmetry, and correctly rejecting the 3,4,1,2 counterexample that defeats
// the naive GQL pattern (Example 3 / Proposition 23).
func TestExample21Edges(t *testing.T) {
	// Node-to-node variant: () [_^z][x := date] { () [_^z][date > x][x := date] }* ()
	inc := MustParse("() [_^z][x := date] { () [_^z][date > x][x := date] }* ()")
	up := gen.DateEdgePath("a", []int64{1, 2, 3, 4})
	res, err := EvalBetween(up, inc, up.MustNode("v0"), up.MustNode("v4"), eval.All, Options{MaxLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("increasing edge dates: %d results, want 1", len(res))
	}
	if got := len(res[0].Binding.Get("z")); got != 4 {
		t.Errorf("z collected %d edges, want 4", got)
	}
	// The paper's counterexample: 03-01, 04-01, 01-01, 02-01.
	down := gen.DateEdgePath("a", []int64{3, 4, 1, 2})
	res, err = EvalBetween(down, inc, down.MustNode("v0"), down.MustNode("v4"), eval.All, Options{MaxLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("3,4,1,2 edge dates must not match, got %d results", len(res))
	}
	// Edge-to-edge variant returns edge-to-edge paths.
	e2e := MustParse("[_^z][x := date] { () [_^z][date > x][x := date] }*")
	res, err = EvalBetween(up, e2e, up.MustNode("v0"), up.MustNode("v4"), eval.All, Options{MaxLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("edge-to-edge: %d results, want 1", len(res))
	}
	p := res[0].Path
	if p.StartsWithNode() || p.EndsWithNode() {
		t.Errorf("expected an edge-to-edge path, got %s", p.Format(up))
	}
}

// TestE20DataFilters reproduces the Section 6.3 "Data Filters" example on
// the Figure 3 graph: the shortest Mike→Rebecca transfer path with at least
// one transfer under 4.5M is path(a3,t6,a4,t9,a6,t10,a5); with at least two
// such transfers the shortest solution must traverse a cycle.
func TestE20DataFilters(t *testing.T) {
	g := gen.BankProperty()
	mike, rebecca := g.MustNode("a3"), g.MustNode("a5")

	// Baseline: unfiltered shortest is the direct t7.
	direct, err := EvalBetween(g, MustParse("() {[Transfer]()}+"), mike, rebecca, eval.Shortest, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != 1 || direct[0].Path.Format(g) != "path(a3, t7, a5)" {
		t.Fatalf("unfiltered shortest: %d results", len(direct))
	}

	cheap := "{[Transfer]()}* [Transfer][amount < 4500000] () {[Transfer]()}*"
	one, err := EvalBetween(g, MustParse("() "+cheap), mike, rebecca, eval.Shortest, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 {
		t.Fatalf("one-cheap shortest: %d results", len(one))
	}
	if got := one[0].Path.Format(g); got != "path(a3, t6, a4, t9, a6, t10, a5)" {
		t.Errorf("one-cheap shortest = %s", got)
	}
	if one[0].Path.Len() != 3 {
		t.Errorf("length = %d, want 3 (beyond the unfiltered shortest)", one[0].Path.Len())
	}

	two, err := EvalBetween(g, MustParse("() "+cheap+" [Transfer][amount < 4500000] () {[Transfer]()}*"),
		mike, rebecca, eval.Shortest, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(two) == 0 {
		t.Fatal("two-cheap: no results")
	}
	got := two[0].Path
	if got.Len() != 4 {
		t.Errorf("two-cheap shortest length = %d, want 4", got.Len())
	}
	if got.IsTrail() {
		t.Errorf("two-cheap shortest should need a cycle (repeat an edge): %s", got.Format(g))
	}
	if want := "path(a3, t7, a5, t4, a1, t1, a3, t7, a5)"; got.Format(g) != want {
		t.Errorf("two-cheap shortest = %s, want %s", got.Format(g), want)
	}
}

func TestAssignFromUndefinedPropertyFails(t *testing.T) {
	g := graph.NewBuilder().AddNode("n", "a", nil).MustBuild()
	res, err := EvalBetween(g, MustParse("(x := date)"), 0, 0, eval.All, Options{MaxLen: 1})
	if err != nil || len(res) != 0 {
		t.Errorf("assign from undefined property: %d results, err %v", len(res), err)
	}
	// Comparing an unset data variable also fails.
	res, err = EvalBetween(g, MustParse("(a)(date > x)"), 0, 0, eval.All, Options{MaxLen: 1})
	if err != nil || len(res) != 0 {
		t.Errorf("unset data variable: %d results, err %v", len(res), err)
	}
}

func TestModes(t *testing.T) {
	// u ⇄ v plus u → w; (a-labeled). From u to w under {[a]()}+.
	g := graph.NewBuilder().
		AddNode("u", "", nil).AddNode("v", "", nil).AddNode("w", "", nil).
		AddEdge("e1", "a", "u", "v", nil).
		AddEdge("e2", "a", "v", "u", nil).
		AddEdge("e3", "a", "u", "w", nil).
		MustBuild()
	u, w := g.MustNode("u"), g.MustNode("w")
	e := MustParse("() {[a]()}+")
	simple, err := EvalBetween(g, e, u, w, eval.Simple, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(simple) != 1 {
		t.Errorf("simple: %d results, want 1", len(simple))
	}
	trail, err := EvalBetween(g, e, u, w, eval.Trail, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(trail) != 2 {
		t.Errorf("trail: %d results, want 2", len(trail))
	}
	shortest, err := EvalBetween(g, e, u, w, eval.Shortest, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(shortest) != 1 || shortest[0].Path.Len() != 1 {
		t.Errorf("shortest: %d results", len(shortest))
	}
	// From a node to itself the shortest match of a nullable expression is
	// the empty path, however many cycles run through the node.
	self, err := EvalBetween(g, MustParse("() {[a]()}*"), u, u, eval.Shortest, Options{})
	if err != nil || len(self) != 1 || self[0].Path.Len() != 0 {
		t.Errorf("shortest u→u: %d results (err %v), want the empty path", len(self), err)
	}
}

func TestEvalUnanchored(t *testing.T) {
	g := gen.BankProperty()
	// All accounts with a blocked flag: (isBlocked = 'yes').
	res, err := Eval(g, MustParse("(isBlocked = 'yes')"), Options{MaxLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, pb := range res {
		got[pb.Path.Format(g)] = true
	}
	if len(got) != 2 || !got["path(a2)"] || !got["path(a4)"] {
		t.Errorf("blocked accounts = %v, want {a2, a4}", got)
	}
}

func TestErrUnbounded(t *testing.T) {
	g := gen.Cycle(3, "a")
	if _, err := EvalBetween(g, MustParse("() {[a]()}*"), 0, 0, eval.All, Options{}); !errors.Is(err, ErrUnbounded) {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
	if _, err := Eval(g, MustParse("(a)"), Options{}); !errors.Is(err, ErrUnbounded) {
		t.Errorf("Eval err = %v, want ErrUnbounded", err)
	}
}

func TestLimitOnlyDeepening(t *testing.T) {
	g := gen.Cycle(3, "a")
	res, err := EvalBetween(g, MustParse("() {[a]()}*"), 0, 0, eval.All, Options{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("limit-only: %d results, want 2", len(res))
	}
	if res[0].Path.Len() != 0 || res[1].Path.Len() != 3 {
		t.Errorf("lengths = %d, %d; want 0, 3", res[0].Path.Len(), res[1].Path.Len())
	}
}

func TestIdleLoopsAreCut(t *testing.T) {
	// {(a^z)}* could pump z forever on a single node; the evaluator cuts
	// idle loops, so each node yields finitely many results.
	g := graph.NewBuilder().AddNode("n", "a", nil).MustBuild()
	res, err := EvalBetween(g, MustParse("{(a^z)}*"), 0, 0, eval.All, Options{MaxLen: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("expected at least the single-visit result")
	}
	for _, pb := range res {
		if len(pb.Binding.Get("z")) > 2 {
			t.Errorf("idle pumping not cut: |z| = %d", len(pb.Binding.Get("z")))
		}
	}
}

func TestWildcardExceptAtoms(t *testing.T) {
	g := gen.BankEdgeLabeled()
	// Paths a3→a5 whose single edge is NOT a Transfer: none exist.
	res, err := EvalBetween(g, MustParse("() [!{Transfer}] ()"), g.MustNode("a3"), g.MustNode("a5"),
		eval.All, Options{MaxLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("non-Transfer a3→a5: %d results, want 0", len(res))
	}
	// a3 → Mike via a non-Transfer edge (owner).
	res, err = EvalBetween(g, MustParse("() [!{Transfer}^z] ()"), g.MustNode("a3"), g.MustNode("Mike"),
		eval.All, Options{MaxLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Binding.Format(g) != "{z -> list(r3)}" {
		t.Errorf("owner edge: %d results", len(res))
	}
}

func TestShortestNoMatch(t *testing.T) {
	g := gen.APath(2, "a")
	res, err := EvalBetween(g, MustParse("() [b] ()"), 0, 1, eval.Shortest, Options{})
	if err != nil || res != nil {
		t.Errorf("no match: res=%v err=%v", res, err)
	}
}

// TestParseNestingBound: brace groups and repetitions nest up to
// rpq.MaxNesting deep, counted as package rpq's parser counts them, and one
// more is refused with the depth and the bound named — 200 000 open braces
// included, which parsed, and were accepted, before the bound.
func TestParseNestingBound(t *testing.T) {
	groups := func(depth int) string {
		return strings.Repeat("{", depth) + "[a]" + strings.Repeat("}", depth)
	}
	stars := func(depth int) string { return "[a]" + strings.Repeat("*", depth) }
	mixed := func(depth int) string { return strings.Repeat("{", depth/2) + "[a]" + strings.Repeat("}*", depth/2) }
	for _, text := range []string{groups(rpq.MaxNesting), stars(rpq.MaxNesting), mixed(rpq.MaxNesting)} {
		if _, err := Parse(text); err != nil {
			t.Fatalf("%d bytes at the bound: %v", len(text), err)
		}
	}
	for _, text := range []string{groups(rpq.MaxNesting + 1), stars(rpq.MaxNesting + 1), mixed(rpq.MaxNesting + 2), strings.Repeat("{", 200000)} {
		_, err := Parse(text)
		if err == nil || !strings.Contains(err.Error(), "deep; the bound is 1000") {
			t.Errorf("%d bytes past the bound: %v", len(text), err)
		}
	}
}
