package gpath

import (
	"errors"
	"math/rand"
	"testing"

	"graphquery/internal/graph"
)

// testGraph builds a small fragment of the Figure 3 bank graph:
//
//	a1 --t1--> a3 --t2--> a2, a3 --t5--> a2, and a self-loop t0 on a1.
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.NewBuilder().
		AddNode("a1", "Account", nil).
		AddNode("a2", "Account", nil).
		AddNode("a3", "Account", nil).
		AddEdge("t1", "Transfer", "a1", "a3", nil).
		AddEdge("t2", "Transfer", "a3", "a2", nil).
		AddEdge("t5", "Transfer", "a3", "a2", nil).
		AddEdge("t0", "Transfer", "a1", "a1", nil).
		MustBuild()
}

func mustPath(t *testing.T, g *graph.Graph, objs ...graph.Object) Path {
	t.Helper()
	p, err := New(g, objs...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func node(g *graph.Graph, id graph.NodeID) graph.Object {
	return graph.MakeNodeObject(g.MustNode(id))
}

func edge(g *graph.Graph, id graph.EdgeID) graph.Object {
	return graph.MakeEdgeObject(g.MustEdge(id))
}

func TestPathValidity(t *testing.T) {
	g := testGraph(t)
	// Example 10: path(a1, t1, a3, t2) is a valid node-to-edge path.
	p := mustPath(t, g, node(g, "a1"), edge(g, "t1"), node(g, "a3"), edge(g, "t2"))
	if !p.StartsWithNode() || p.EndsWithNode() {
		t.Error("path(a1,t1,a3,t2) should be node-to-edge")
	}
	// path(t1, a3, t2) is a valid edge-to-edge path.
	q := mustPath(t, g, edge(g, "t1"), node(g, "a3"), edge(g, "t2"))
	if q.StartsWithNode() || q.EndsWithNode() {
		t.Error("path(t1,a3,t2) should be edge-to-edge")
	}
	// path(a1, t1, t1) repeats an edge without an interleaving node: invalid.
	if _, err := New(g, node(g, "a1"), edge(g, "t1"), edge(g, "t1")); !errors.Is(err, ErrNotAPath) {
		t.Errorf("path(a1,t1,t1) error = %v, want ErrNotAPath", err)
	}
	// Wrong incidence: t2 starts at a3, not a1.
	if _, err := New(g, node(g, "a1"), edge(g, "t2")); !errors.Is(err, ErrNotAPath) {
		t.Errorf("path(a1,t2) error = %v, want ErrNotAPath", err)
	}
	// Two consecutive nodes do not alternate.
	if _, err := New(g, node(g, "a1"), node(g, "a3")); !errors.Is(err, ErrNotAPath) {
		t.Errorf("path(a1,a3) error = %v, want ErrNotAPath", err)
	}
}

func TestSrcTgtLen(t *testing.T) {
	g := testGraph(t)
	p := mustPath(t, g, edge(g, "t1"), node(g, "a3"), edge(g, "t2"))
	if s, ok := p.Src(g); !ok || s != g.MustNode("a1") {
		t.Errorf("Src = %d,%v; want a1 (src of t1)", s, ok)
	}
	if s, ok := p.Tgt(g); !ok || s != g.MustNode("a2") {
		t.Errorf("Tgt = %d,%v; want a2 (tgt of t2)", s, ok)
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2", p.Len())
	}
	if _, ok := Empty().Src(g); ok {
		t.Error("empty path should have no Src")
	}
	if Empty().Len() != 0 {
		t.Error("empty path length should be 0")
	}
}

func TestELab(t *testing.T) {
	g := testGraph(t)
	p := mustPath(t, g, node(g, "a1"), edge(g, "t1"), node(g, "a3"), edge(g, "t2"), node(g, "a2"))
	got := p.ELab(g)
	if len(got) != 2 || got[0] != "Transfer" || got[1] != "Transfer" {
		t.Errorf("ELab = %v", got)
	}
	if lab := OfNode(0).ELab(g); len(lab) != 0 {
		t.Errorf("node path elab should be ε, got %v", lab)
	}
}

// TestConcatExample10 checks the three decompositions of path(a1,t1,a3,t2,a2)
// from Example 10 of the paper.
func TestConcatExample10(t *testing.T) {
	g := testGraph(t)
	full := mustPath(t, g, node(g, "a1"), edge(g, "t1"), node(g, "a3"), edge(g, "t2"), node(g, "a2"))

	cases := []struct{ p, q Path }{
		{ // path(a1,t1,a3) · path(a3,t2,a2): shared node collapses
			mustPath(t, g, node(g, "a1"), edge(g, "t1"), node(g, "a3")),
			mustPath(t, g, node(g, "a3"), edge(g, "t2"), node(g, "a2")),
		},
		{ // path(a1,t1) · path(a3,t2,a2): edge end meets its target node
			mustPath(t, g, node(g, "a1"), edge(g, "t1")),
			mustPath(t, g, node(g, "a3"), edge(g, "t2"), node(g, "a2")),
		},
		{ // path(a1,t1) · path(t1,a3,t2,a2): shared edge collapses
			mustPath(t, g, node(g, "a1"), edge(g, "t1")),
			mustPath(t, g, edge(g, "t1"), node(g, "a3"), edge(g, "t2"), node(g, "a2")),
		},
	}
	for i, tc := range cases {
		got, ok := Concat(g, tc.p, tc.q)
		if !ok {
			t.Fatalf("case %d: concat undefined", i)
		}
		if !got.Equal(full) {
			t.Errorf("case %d: got %s, want %s", i, got.Format(g), full.Format(g))
		}
	}
	// The third case shows len(p·q) < len(p)+len(q): 1+2 edges collapse to 2.
	if p3, _ := Concat(g, cases[2].p, cases[2].q); p3.Len() != 2 {
		t.Errorf("collapsed concat length = %d, want 2", p3.Len())
	}
}

// TestConcatCollapseLaw checks path(o)·path(o) = path(o) for nodes AND edges
// (the symmetry decision), and the self-loop subtlety from Section 2:
// path(t0)·path(t0) = path(t0), but path(t0)·path(a1,t0) traverses t0 twice.
func TestConcatCollapseLaw(t *testing.T) {
	g := testGraph(t)
	n := OfNode(g.MustNode("a1"))
	if got, ok := Concat(g, n, n); !ok || !got.Equal(n) {
		t.Errorf("path(a1)·path(a1) = %v,%v; want path(a1)", got, ok)
	}
	e := OfEdge(g.MustEdge("t0"))
	if got, ok := Concat(g, e, e); !ok || !got.Equal(e) {
		t.Errorf("path(t0)·path(t0) = %v,%v; want path(t0)", got, ok)
	}
	twice := mustPath(t, g, edge(g, "t0"), node(g, "a1"), edge(g, "t0"))
	via := mustPath(t, g, node(g, "a1"), edge(g, "t0"))
	if got, ok := Concat(g, e, via); !ok || !got.Equal(twice) {
		t.Errorf("path(t0)·path(a1,t0) = %v; want path(t0,a1,t0)", got.Format(g))
	}
	if twice.Len() != 2 {
		t.Errorf("path(t0,a1,t0) length = %d, want 2 (multiplicity counts)", twice.Len())
	}
}

func TestConcatUndefined(t *testing.T) {
	g := testGraph(t)
	// a2 then a1: distinct nodes, no rule applies.
	if _, ok := Concat(g, OfNode(g.MustNode("a2")), OfNode(g.MustNode("a1"))); ok {
		t.Error("path(a2)·path(a1) should be undefined")
	}
	// t1 ends at a3; path starting at a1 cannot follow.
	p := OfEdge(g.MustEdge("t1"))
	q := mustPath(t, g, node(g, "a1"), edge(g, "t0"))
	if _, ok := Concat(g, p, q); ok {
		t.Error("path(t1)·path(a1,t0) should be undefined")
	}
	// Distinct parallel edges t2, t5 do not collapse and are not incident.
	if _, ok := Concat(g, OfEdge(g.MustEdge("t2")), OfEdge(g.MustEdge("t5"))); ok {
		t.Error("path(t2)·path(t5) should be undefined")
	}
}

func TestConcatEmptyIdentity(t *testing.T) {
	g := testGraph(t)
	p := mustPath(t, g, node(g, "a1"), edge(g, "t1"), node(g, "a3"))
	if got, ok := Concat(g, p, Empty()); !ok || !got.Equal(p) {
		t.Error("p·path() should be p")
	}
	if got, ok := Concat(g, Empty(), p); !ok || !got.Equal(p) {
		t.Error("path()·p should be p")
	}
}

// TestConcatAssociativity: wherever both groupings are defined they agree.
// Random walks over the test graph provide the candidate triples.
func TestConcatAssociativity(t *testing.T) {
	g := testGraph(t)
	rng := rand.New(rand.NewSource(11))
	walk := func() Path {
		// random short walk starting at a random node, as object paths
		n := rng.Intn(g.NumNodes())
		p := OfNode(n)
		for steps := rng.Intn(3); steps > 0; steps-- {
			out := g.Out(n)
			if len(out) == 0 {
				break
			}
			e := out[rng.Intn(len(out))]
			q := Triple(g, e)
			var ok bool
			p, ok = Concat(g, p, q)
			if !ok {
				break
			}
			n = g.Edge(e).Tgt
		}
		return p
	}
	for trial := 0; trial < 500; trial++ {
		a, b, c := walk(), walk(), walk()
		ab, okAB := Concat(g, a, b)
		bc, okBC := Concat(g, b, c)
		if !okAB || !okBC {
			continue
		}
		l, okL := Concat(g, ab, c)
		r, okR := Concat(g, a, bc)
		if okL != okR {
			t.Fatalf("associativity definedness mismatch: (ab)c ok=%v, a(bc) ok=%v", okL, okR)
		}
		if okL && !l.Equal(r) {
			t.Fatalf("associativity violated:\n(ab)c = %s\na(bc) = %s", l.Format(g), r.Format(g))
		}
	}
}

func TestSimpleAndTrail(t *testing.T) {
	g := testGraph(t)
	simple := mustPath(t, g, node(g, "a1"), edge(g, "t1"), node(g, "a3"), edge(g, "t2"), node(g, "a2"))
	if !simple.IsSimple() || !simple.IsTrail() {
		t.Error("a1→a3→a2 should be simple and a trail")
	}
	loopTwice := mustPath(t, g, node(g, "a1"), edge(g, "t0"), node(g, "a1"), edge(g, "t0"), node(g, "a1"))
	if loopTwice.IsSimple() {
		t.Error("repeated node: not simple")
	}
	if loopTwice.IsTrail() {
		t.Error("repeated edge: not a trail")
	}
	loopOnce := mustPath(t, g, node(g, "a1"), edge(g, "t0"), node(g, "a1"))
	if loopOnce.IsSimple() {
		t.Error("self-loop repeats its node: not simple")
	}
	if !loopOnce.IsTrail() {
		t.Error("self-loop once: still a trail")
	}
}

func TestNodesEdgesExtraction(t *testing.T) {
	g := testGraph(t)
	p := mustPath(t, g, node(g, "a1"), edge(g, "t1"), node(g, "a3"), edge(g, "t2"), node(g, "a2"))
	ns := p.Nodes()
	if len(ns) != 3 || ns[0] != g.MustNode("a1") || ns[2] != g.MustNode("a2") {
		t.Errorf("Nodes = %v", ns)
	}
	es := p.Edges()
	if len(es) != 2 || es[0] != g.MustEdge("t1") || es[1] != g.MustEdge("t2") {
		t.Errorf("Edges = %v", es)
	}
}

func TestPathKeyAndFormat(t *testing.T) {
	g := testGraph(t)
	p := mustPath(t, g, node(g, "a1"), edge(g, "t1"), node(g, "a3"))
	q := mustPath(t, g, node(g, "a1"), edge(g, "t1"), node(g, "a3"))
	r := mustPath(t, g, node(g, "a3"), edge(g, "t2"), node(g, "a2"))
	if p.Key() != q.Key() {
		t.Error("equal paths must share keys")
	}
	if p.Key() == r.Key() {
		t.Error("different paths must differ in key")
	}
	if got := p.Format(g); got != "path(a1, t1, a3)" {
		t.Errorf("Format = %q", got)
	}
	if got := Empty().Format(g); got != "path()" {
		t.Errorf("empty Format = %q", got)
	}
}

// TestFromEdges: the path along a chain of edges is the one New validates,
// the empty chain is the source alone, and a broken chain panics.
func TestFromEdges(t *testing.T) {
	g := testGraph(t)
	a1, a2, a3 := g.MustNode("a1"), g.MustNode("a2"), g.MustNode("a3")
	t0, t1, t5 := g.MustEdge("t0"), g.MustEdge("t1"), g.MustEdge("t5")
	want := mustPath(t, g, graph.MakeNodeObject(a1), graph.MakeEdgeObject(t0), graph.MakeNodeObject(a1),
		graph.MakeEdgeObject(t1), graph.MakeNodeObject(a3), graph.MakeEdgeObject(t5), graph.MakeNodeObject(a2))
	if got := FromEdges(g, a1, []int{t0, t1, t5}); !got.Equal(want) {
		t.Errorf("FromEdges = %s, want %s", got.Format(g), want.Format(g))
	}
	if got := FromEdges(g, a3, nil); !got.Equal(OfNode(a3)) {
		t.Errorf("FromEdges with no edges = %s, want path(a3)", got.Format(g))
	}
	defer func() {
		if recover() == nil {
			t.Error("FromEdges of a broken chain did not panic")
		}
	}()
	FromEdges(g, a1, []int{t1, t1})
}
