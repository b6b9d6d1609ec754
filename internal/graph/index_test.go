package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// randomGraph builds a seeded multigraph (self-loops allowed) directly with
// the builder, to exercise the label index without importing gen (which
// would create an import cycle).
func randomGraph(t *testing.T, n, m int, labels []string, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(NodeID(fmt.Sprintf("v%d", i)), "", nil)
	}
	for e := 0; e < m; e++ {
		b.AddEdge(EdgeID(fmt.Sprintf("e%d", e)), labels[rng.Intn(len(labels))],
			NodeID(fmt.Sprintf("v%d", rng.Intn(n))),
			NodeID(fmt.Sprintf("v%d", rng.Intn(n))), nil)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestLabelIndexMatchesDenseLists holds every adjacency read — Out, In,
// OutWithLabel, InWithLabel — to an oracle that shares no index with the
// CSR or the overlay's rows: a scan of the live edge list by endpoint and
// label, in (label ID, edge index) order. It runs on a built graph and on
// overlays that tombstone nodes, remove and add edges, and add a label
// first seen after the build (whose ID sorts after the base's, though its
// name sorts first).
func TestLabelIndexMatchesDenseLists(t *testing.T) {
	g := randomGraph(t, 40, 300, []string{"a", "b", "c", "knows"}, 7)
	checkRowsAgainstScan(t, "built", g)

	v1, err := g.Apply([]Mutation{
		{Op: MutRemoveNode, ID: "v3"},
		{Op: MutRemoveNode, ID: "v17"},
		{Op: MutRemoveEdge, ID: "e10"},
		{Op: MutRemoveEdge, ID: "e11"},
		{Op: MutAddEdge, ID: "x0", Label: "b", Src: "v1", Tgt: "v2"},
		{Op: MutAddEdge, ID: "x1", Label: "0new", Src: "v1", Tgt: "v1"},
		{Op: MutAddNode, ID: "w0"},
		{Op: MutAddEdge, ID: "x2", Label: "a", Src: "w0", Tgt: "v1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkRowsAgainstScan(t, "overlay", v1)
	v2, err := v1.Apply([]Mutation{
		{Op: MutRemoveEdge, ID: "x0"},
		{Op: MutAddEdge, ID: "x3", Label: "0new", Src: "v2", Tgt: "w0"},
		{Op: MutAddEdge, ID: "x4", Label: "knows", Src: "v1", Tgt: "v5"},
		{Op: MutRemoveNode, ID: "v5"},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkRowsAgainstScan(t, "second overlay", v2)
	checkRowsAgainstScan(t, "first overlay after the second", v1)
}

func checkRowsAgainstScan(t *testing.T, name string, g *Graph) {
	t.Helper()
	for n := 0; n < g.NumNodes(); n++ {
		var wantOut, wantIn []int
		for id := 0; id < g.NumLabels(); id++ {
			var out, in []int
			for ei := 0; ei < g.NumEdges(); ei++ {
				if !g.EdgeAlive(ei) || g.EdgeLabelID(ei) != id {
					continue
				}
				if g.EdgeSrc(ei) == n {
					out = append(out, ei)
				}
				if g.EdgeTgt(ei) == n {
					in = append(in, ei)
				}
			}
			if got := g.OutWithLabel(n, id); !equalInts(got, out) {
				t.Fatalf("%s: OutWithLabel(%d, %q) = %v, want %v", name, n, g.LabelName(id), got, out)
			}
			if got := g.InWithLabel(n, id); !equalInts(got, in) {
				t.Fatalf("%s: InWithLabel(%d, %q) = %v, want %v", name, n, g.LabelName(id), got, in)
			}
			wantOut, wantIn = append(wantOut, out...), append(wantIn, in...)
		}
		if got := g.Out(n); !equalInts(got, wantOut) {
			t.Fatalf("%s: Out(%d) = %v, want %v", name, n, got, wantOut)
		}
		if got := g.In(n); !equalInts(got, wantIn) {
			t.Fatalf("%s: In(%d) = %v, want %v", name, n, got, wantIn)
		}
	}
}

func TestEdgesWithLabelSharesNumbering(t *testing.T) {
	g := randomGraph(t, 20, 120, []string{"x", "y", "z"}, 3)
	for id, lab := range g.EdgeLabels() {
		gotID, ok := g.LabelID(lab)
		if !ok || gotID != id {
			t.Fatalf("LabelID(%q) = %d, %v; want %d", lab, gotID, ok, id)
		}
		byName := g.EdgesWithLabel(lab)
		byID := g.EdgesWithLabelID(id)
		if !equalInts(byName, byID) {
			t.Fatalf("EdgesWithLabel(%q) = %v, EdgesWithLabelID(%d) = %v", lab, byName, id, byID)
		}
		for _, ei := range byID {
			if g.EdgeLabelID(ei) != id || g.Edge(ei).Label != lab {
				t.Fatalf("edge %d not labeled %q", ei, lab)
			}
		}
	}
	// Unknown and empty labels.
	if got := g.EdgesWithLabel("nope"); got != nil {
		t.Fatalf("EdgesWithLabel(unknown) = %v, want nil", got)
	}
	if got := g.EdgesWithLabel(""); len(got) != g.NumEdges() {
		t.Fatalf("EdgesWithLabel(\"\") = %d edges, want %d", len(got), g.NumEdges())
	}
}

// TestLabelIDsStableAcrossRoundTrips checks that the interned label
// numbering survives JSON and CSV round-trips: the same graph re-read from
// either codec assigns the same ID to every label.
func TestLabelIDsStableAcrossRoundTrips(t *testing.T) {
	g := randomGraph(t, 12, 60, []string{"Transfer", "owner", "isBlocked"}, 11)

	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}

	var nodes, edges strings.Builder
	nodes.WriteString("id,label\n")
	for i := 0; i < g.NumNodes(); i++ {
		fmt.Fprintf(&nodes, "%s,%s\n", g.Node(i).ID, g.Node(i).Label)
	}
	edges.WriteString("id,label,src,tgt\n")
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		fmt.Fprintf(&edges, "%s,%s,%s,%s\n", e.ID, e.Label, g.Node(e.Src).ID, g.Node(e.Tgt).ID)
	}
	fromCSV, err := ReadCSV(strings.NewReader(nodes.String()), strings.NewReader(edges.String()))
	if err != nil {
		t.Fatal(err)
	}

	for _, rt := range []*Graph{fromJSON, fromCSV} {
		if rt.NumLabels() != g.NumLabels() {
			t.Fatalf("round-trip label count = %d, want %d", rt.NumLabels(), g.NumLabels())
		}
		for id, lab := range g.EdgeLabels() {
			gotID, ok := rt.LabelID(lab)
			if !ok || gotID != id {
				t.Fatalf("round-trip LabelID(%q) = %d, %v; want %d", lab, gotID, ok, id)
			}
		}
		for ei := 0; ei < g.NumEdges(); ei++ {
			idx, ok := rt.EdgeIndex(g.Edge(ei).ID)
			if !ok {
				t.Fatalf("round-trip lost edge %q", g.Edge(ei).ID)
			}
			if rt.EdgeLabelID(idx) != g.EdgeLabelID(ei) {
				t.Fatalf("edge %q label ID changed across round-trip", g.Edge(ei).ID)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
