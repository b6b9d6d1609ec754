package regular

import (
	"reflect"
	"strings"
	"testing"

	"graphquery/internal/crpq"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
)

// twoWayGraph: u ⇄ v ⇄ w plus one-directional w → x, all Transfer.
func twoWayGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.NewBuilder().
		AddNode("u", "", nil).AddNode("v", "", nil).
		AddNode("w", "", nil).AddNode("x", "", nil).
		AddEdge("e1", "Transfer", "u", "v", nil).
		AddEdge("e2", "Transfer", "v", "u", nil).
		AddEdge("e3", "Transfer", "v", "w", nil).
		AddEdge("e4", "Transfer", "w", "v", nil).
		AddEdge("e5", "Transfer", "w", "x", nil).
		MustBuild()
}

// TestExample15 reproduces the nested CRPQ of Example 15: pairs of nodes
// connected by a path of virtual edges defined by
// q1(x,y) := Transfer(x,y), Transfer(y,x).
func TestExample15(t *testing.T) {
	g := twoWayGraph(t)
	p := MustParse(`
		# Example 14's q1 as a virtual edge:
		Vedge(x, y) :- Transfer(x, y), Transfer(y, x)
		# Example 15: its transitive closure (plus reflexivity via *):
		q(a, b) :- Vedge+(a, b)
	`)
	res, err := Eval(g, p, crpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Virtual edges: u↔v, v↔w (and symmetric). Closure: all pairs among
	// {u,v,w} in both directions including self via round trips.
	want := []string{
		"u, v", "v, u", "v, w", "w, v", "u, w", "w, u",
		"u, u", "v, v", "w, w",
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d:\n%s", len(res.Rows), len(want), res.Format(g))
	}
	for _, r := range want {
		if !res.Contains(g, r) {
			t.Errorf("missing pair (%s)", r)
		}
	}
	// x is only reachable one-way: never in the closure.
	if strings.Contains(res.Format(g), "x") {
		t.Error("x must not participate in two-way closures")
	}
}

// TestCRPQsAreNotCompositional demonstrates the Example 14 point: the flat
// CRPQ cannot take the closure, but the program can — compare a flat
// 2-step unfolding with the true closure.
func TestCRPQsAreNotCompositional(t *testing.T) {
	g := twoWayGraph(t)
	// Flat 1-step unfolding: just q1 itself.
	oneStep, err := crpq.Eval(g,
		crpq.MustParse("q(x, y) :- Transfer(x, y), Transfer(y, x)"), crpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	closure, err := Eval(g, MustParse(`
		Vedge(x, y) :- Transfer(x, y), Transfer(y, x)
		q(a, b) :- Vedge+(a, b)
	`), crpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !closure.Contains(g, "u, w") {
		t.Error("closure should connect u to w through v")
	}
	if oneStep.Contains(g, "u, w") {
		t.Error("the flat query cannot connect u to w")
	}
}

func TestChainedDefinitions(t *testing.T) {
	// A definition may use an earlier definition.
	g := gen.BankEdgeLabeled()
	p := MustParse(`
		Hop2(x, y) :- Transfer Transfer (x, y)
		Hop4(x, y) :- Hop2 Hop2 (x, y)
		q(x) :- Hop4(@a3, x)
	`)
	res, err := Eval(g, p, crpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against a plain 4-step RPQ.
	ref, err := crpq.Eval(g, crpq.MustParse("q(x) :- Transfer{4}(@a3, x)"), crpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Format(g) != ref.Format(g) {
		t.Errorf("Hop4 = %q, reference = %q", res.Format(g), ref.Format(g))
	}
}

func TestNestedListVariables(t *testing.T) {
	// Final queries may carry list variables over virtual edges.
	g := twoWayGraph(t)
	p := MustParse(`
		Vedge(x, y) :- Transfer(x, y), Transfer(y, x)
		q(z) :- shortest (Vedge^z)+(@u, @w)
	`)
	res, err := Eval(g, p, crpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d:\n%s", len(res.Rows), res.Format(g))
	}
	if !res.Rows[0][0].IsList || len(res.Rows[0][0].List) != 2 {
		t.Errorf("expected a 2-element virtual-edge list, got %s", res.Rows[0][0].Format(g))
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []string{
		"", // empty
		"q(x, y, z) :- a(x, y), a(y, z)\nq(x) :- a(x, x)", // ternary def... first line is def with 3 head vars
		"V(x, x) :- a(x, x)\nq(y) :- V(y, y)",             // repeated head var
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
	// Duplicate definition names.
	p := &Program{
		Defs: []Def{
			{Name: "V", Query: crpq.MustParse("V(x, y) :- a(x, y)")},
			{Name: "V", Query: crpq.MustParse("V(x, y) :- b(x, y)")},
		},
		Final: crpq.MustParse("q(x) :- V(x, x)"),
	}
	if err := p.Validate(); err == nil {
		t.Error("duplicate names should fail")
	}
	// Missing final.
	p2 := &Program{Defs: nil, Final: nil}
	if err := p2.Validate(); err == nil {
		t.Error("missing final query should fail")
	}
}

func TestMaterializePreservesOriginal(t *testing.T) {
	g := twoWayGraph(t)
	p := MustParse(`
		Vedge(x, y) :- Transfer(x, y), Transfer(y, x)
		q(a, b) :- Vedge(a, b)
	`)
	aug, err := p.Materialize(g, crpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if aug.NumNodes() != g.NumNodes() {
		t.Error("materialization must not add nodes")
	}
	if aug.NumEdges() <= g.NumEdges() {
		t.Error("materialization should add virtual edges")
	}
	// Original edges intact.
	if _, ok := aug.EdgeIndex("e1"); !ok {
		t.Error("original edges must survive")
	}
	// Virtual edges labeled with the definition name.
	found := false
	for i := 0; i < aug.NumEdges(); i++ {
		if aug.Edge(i).Label == "Vedge" {
			found = true
		}
	}
	if !found {
		t.Error("virtual edges missing")
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	p := MustParse(`
		# leading comment

		V(x, y) :- a(x, y)
		# interleaved comment
		q(x, y) :- V(x, y)
	`)
	if len(p.Defs) != 1 || p.Defs[0].Name != "V" {
		t.Errorf("defs = %+v", p.Defs)
	}
}

// TestPlanAgreesWithReference: a program's definitions and its final query
// run on the CRPQ plan; each answers, row for row and in order, what the
// reference crpq.Eval answers on the graph the definitions before it
// augmented — tier atoms (modes, list variables) among them, since a
// virtual edge's ID is its row's position.
func TestPlanAgreesWithReference(t *testing.T) {
	for _, tc := range []struct {
		g    *graph.Graph
		text string
	}{
		{twoWayGraph(t), `
			Vedge(x, y) :- Transfer(x, y), Transfer(y, x)
			q(a, b) :- Vedge+(a, b)`},
		{twoWayGraph(t), `
			Vedge(x, y) :- Transfer(x, y), Transfer(y, x)
			q(z, a) :- shortest (Vedge^z)+(@u, a)`},
		{gen.BankEdgeLabeled(), `
			Near(x, y) :- shortest Transfer Transfer?(x, y), owner(x, z)
			Hop(x, y) :- simple Near Near(x, y)
			q(x, z, w) :- (Near^z) Hop(x, y), trail (Transfer^w)(y, x)`},
	} {
		p := MustParse(tc.text)
		opts := crpq.Options{AtomMaxLen: 4}
		for i := range p.Defs {
			prefix := &Program{Defs: p.Defs[:i], Final: p.Final}
			cur, err := prefix.Materialize(tc.g, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := crpq.EvalPlan(cur, p.Defs[i].Query, opts)
			if err != nil {
				t.Fatal(err)
			}
			if ref, err := crpq.Eval(cur, p.Defs[i].Query, opts); err != nil || !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: plan\n%s\nreference (err %v)\n%s", p.Defs[i].Name, got.Format(cur), err, ref.Format(cur))
			}
		}
		aug, err := p.Materialize(tc.g, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Eval(tc.g, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := crpq.Eval(aug, p.Final, opts)
		if err != nil || !reflect.DeepEqual(got, ref) || len(got.Rows) == 0 {
			t.Errorf("final query: plan\n%s\nreference (err %v)\n%s", got.Format(aug), err, ref.Format(aug))
		}
	}
}
