package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// dumpGraph renders the full external view of a graph — live nodes, live
// edges, properties, adjacency (as edge-ID sets), and the per-label
// indexes — in a canonical order, so an overlay graph can be compared
// byte-for-byte against its materialized rebuild.
func dumpGraph(g *Graph) string {
	var b strings.Builder
	var nodeIDs []string
	for i := 0; i < g.NumNodes(); i++ {
		if g.NodeAlive(i) {
			nodeIDs = append(nodeIDs, string(g.nodes[i].ID))
		}
	}
	sort.Strings(nodeIDs)
	fmt.Fprintf(&b, "nodes=%d edges=%d\n", g.NumLiveNodes(), g.NumLiveEdges())
	for _, id := range nodeIDs {
		i := g.MustNode(NodeID(id))
		n := g.Node(i)
		fmt.Fprintf(&b, "node %s label=%q props={%s} out=[%s] in=[%s]\n",
			id, n.Label, propsString(n.Props),
			edgeIDList(g, g.Out(i)), edgeIDList(g, g.In(i)))
		for _, lab := range g.EdgeLabels() {
			lid, ok := g.LabelID(lab)
			if !ok {
				continue
			}
			if row := g.OutWithLabel(i, lid); len(row) > 0 {
				fmt.Fprintf(&b, "  out[%s]=[%s]\n", lab, edgeIDList(g, row))
			}
			if row := g.InWithLabel(i, lid); len(row) > 0 {
				fmt.Fprintf(&b, "  in[%s]=[%s]\n", lab, edgeIDList(g, row))
			}
		}
	}
	var edgeIDs []string
	for i := 0; i < g.NumEdges(); i++ {
		if g.EdgeAlive(i) {
			edgeIDs = append(edgeIDs, string(g.edges[i].ID))
		}
	}
	sort.Strings(edgeIDs)
	for _, id := range edgeIDs {
		i := g.MustEdge(EdgeID(id))
		e := g.Edge(i)
		fmt.Fprintf(&b, "edge %s label=%q %s->%s props={%s}\n",
			id, e.Label, g.nodes[e.Src].ID, g.nodes[e.Tgt].ID, propsString(e.Props))
	}
	labels := append([]string(nil), g.EdgeLabels()...)
	sort.Strings(labels)
	for _, lab := range labels {
		if ids := edgeIDList(g, g.EdgesWithLabel(lab)); ids != "" {
			lid, _ := g.LabelID(lab)
			fmt.Fprintf(&b, "label %q ×%d: [%s]\n", lab, g.LabelEdgeCount(lid), ids)
		}
	}
	fmt.Fprintf(&b, "all: [%s]\n", edgeIDList(g, g.EdgesWithLabel("")))
	return b.String()
}

func propsString(p Props) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, p[k])
	}
	return strings.Join(parts, ",")
}

// edgeIDList renders a set of edge indexes as sorted external IDs, so
// overlay row order (label-sorted) and CSR order compare equal.
func edgeIDList(g *Graph, edges []int) string {
	ids := make([]string, len(edges))
	for i, ei := range edges {
		ids[i] = string(g.edges[ei].ID)
	}
	sort.Strings(ids)
	return strings.Join(ids, " ")
}

func seedGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := NewBuilder().
		AddNode("a", "Person", Props{"age": Int(30)}).
		AddNode("b", "Person", nil).
		AddNode("c", "City", Props{"name": Str("Oslo")}).
		AddEdge("e1", "knows", "a", "b", Props{"since": Int(2019)}).
		AddEdge("e2", "knows", "b", "a", nil).
		AddEdge("e3", "lives_in", "a", "c", nil).
		AddEdge("e4", "lives_in", "b", "c", nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkEquivalence asserts that the overlay graph's external view is
// byte-identical to a full materialized rebuild of the same state.
func checkEquivalence(t *testing.T, g *Graph) {
	t.Helper()
	m, err := g.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if m.DeltaOps() != 0 {
		t.Fatalf("materialized graph reports %d delta ops", m.DeltaOps())
	}
	got, want := dumpGraph(g), dumpGraph(m)
	if got != want {
		t.Fatalf("overlay view diverges from materialized rebuild:\n--- overlay ---\n%s--- materialized ---\n%s", got, want)
	}
	checkLabelCounts(t, g, m)
}

// checkLabelCounts holds the per-label edge counts Apply keeps to a scan of
// the live edges, on the overlay g and on its materialized rebuild m — where
// a label whose last edge was removed no longer exists at all.
func checkLabelCounts(t *testing.T, g, m *Graph) {
	t.Helper()
	scan := map[string]int{}
	for ei := 0; ei < g.NumEdges(); ei++ {
		if g.EdgeAlive(ei) {
			scan[g.edges[ei].Label]++
		}
	}
	for lid, lab := range g.EdgeLabels() {
		if got := g.LabelEdgeCount(lid); got != scan[lab] {
			t.Fatalf("overlay LabelEdgeCount(%q) = %d, a scan of the live edges counts %d", lab, got, scan[lab])
		}
		mid, ok := m.LabelID(lab)
		if ok != (scan[lab] > 0) {
			t.Fatalf("label %q: %d live edges, yet materialized LabelID ok = %v", lab, scan[lab], ok)
		}
		if ok && m.LabelEdgeCount(mid) != scan[lab] {
			t.Fatalf("materialized LabelEdgeCount(%q) = %d, want %d", lab, m.LabelEdgeCount(mid), scan[lab])
		}
	}
}

func TestApplyBasicOps(t *testing.T) {
	g := seedGraph(t)
	g2, err := g.Apply([]Mutation{
		{Op: MutAddNode, ID: "d", Label: "Person", Props: Props{"age": Int(7)}},
		{Op: MutAddEdge, ID: "e5", Label: "knows", Src: "c", Tgt: "d"},
		{Op: MutAddEdge, ID: "e6", Label: "visited", Src: "d", Tgt: "c"},
		{Op: MutSetNodeProp, ID: "a", Prop: "age", Value: Int(31)},
		{Op: MutSetEdgeProp, ID: "e1", Prop: "since", Value: Null()},
		{Op: MutRemoveEdge, ID: "e2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumLiveNodes() != 4 || g2.NumLiveEdges() != 5 {
		t.Fatalf("live counts = %d nodes, %d edges; want 4, 5", g2.NumLiveNodes(), g2.NumLiveEdges())
	}
	if g2.DeltaOps() != 6 {
		t.Fatalf("DeltaOps = %d, want 6", g2.DeltaOps())
	}
	if v, ok := g2.NodeProp(g2.MustNode("a"), "age"); !ok || v != Int(31) {
		t.Fatalf("a.age = %v, %v; want 31", v, ok)
	}
	if _, ok := g2.EdgeProp(g2.MustEdge("e1"), "since"); ok {
		t.Fatal("e1.since survived a Null set")
	}
	if _, ok := g2.EdgeIndex("e2"); ok {
		t.Fatal("removed edge e2 still resolves")
	}
	if _, ok := g2.LabelID("visited"); !ok {
		t.Fatal("new label 'visited' not interned")
	}
	checkEquivalence(t, g2)

	// The predecessor version is untouched.
	if g.NumLiveEdges() != 4 || g.DeltaOps() != 0 {
		t.Fatalf("base mutated: %d live edges, %d ops", g.NumLiveEdges(), g.DeltaOps())
	}
	if v, _ := g.NodeProp(g.MustNode("a"), "age"); v != Int(30) {
		t.Fatalf("base a.age changed to %v", v)
	}
	if _, ok := g.EdgeIndex("e2"); !ok {
		t.Fatal("base lost edge e2")
	}
}

func TestApplyRemoveNodeCascades(t *testing.T) {
	g := seedGraph(t)
	g2, err := g.Apply([]Mutation{{Op: MutRemoveNode, ID: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	// a had e1 out, e2 in, e3 out — all must die; e4 survives.
	if g2.NumLiveNodes() != 2 || g2.NumLiveEdges() != 1 {
		t.Fatalf("live counts = %d, %d; want 2 nodes, 1 edge", g2.NumLiveNodes(), g2.NumLiveEdges())
	}
	for _, id := range []EdgeID{"e1", "e2", "e3"} {
		if _, ok := g2.EdgeIndex(id); ok {
			t.Fatalf("edge %s survived its endpoint's removal", id)
		}
	}
	if _, ok := g2.EdgeIndex("e4"); !ok {
		t.Fatal("unrelated edge e4 removed")
	}
	checkEquivalence(t, g2)

	// Re-adding the ID creates a fresh node with no adjacency.
	g3, err := g2.Apply([]Mutation{
		{Op: MutAddNode, ID: "a", Label: "Robot"},
		{Op: MutAddEdge, ID: "e5", Label: "knows", Src: "a", Tgt: "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	i := g3.MustNode("a")
	if lab := g3.Node(i).Label; lab != "Robot" {
		t.Fatalf("re-added node label = %q", lab)
	}
	if d := g3.OutDegree(i); d != 1 {
		t.Fatalf("re-added node out-degree = %d, want 1", d)
	}
	checkEquivalence(t, g3)
}

func TestApplySelfLoopRemoval(t *testing.T) {
	g := seedGraph(t)
	g2, err := g.Apply([]Mutation{{Op: MutAddEdge, ID: "loop", Label: "self", Src: "a", Tgt: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	g3, err := g2.Apply([]Mutation{{Op: MutRemoveNode, ID: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumLiveEdges() != 1 { // only e4 remains
		t.Fatalf("live edges = %d, want 1", g3.NumLiveEdges())
	}
	checkEquivalence(t, g3)
}

func TestApplyErrorsAreAtomic(t *testing.T) {
	g := seedGraph(t)
	cases := [][]Mutation{
		{{Op: MutAddNode, ID: "a", Label: "Person"}},                               // duplicate node
		{{Op: MutAddEdge, ID: "e1", Label: "x", Src: "a", Tgt: "b"}},               // duplicate edge
		{{Op: MutAddEdge, ID: "e9", Label: "x", Src: "zz", Tgt: "b"}},              // unknown src
		{{Op: MutAddEdge, ID: "e9", Label: "x", Src: "a", Tgt: "zz"}},              // unknown tgt
		{{Op: MutRemoveNode, ID: "zz"}},                                            // unknown node
		{{Op: MutRemoveEdge, ID: "zz"}},                                            // unknown edge
		{{Op: MutSetNodeProp, ID: "zz", Prop: "p", Value: Int(1)}},                 // unknown node
		{{Op: MutSetEdgeProp, ID: "zz", Prop: "p", Value: Int(1)}},                 // unknown edge
		{{Op: MutSetNodeProp, ID: "a", Value: Int(1)}},                             // empty prop name
		{{Op: MutAddNode, ID: "", Label: "x"}},                                     // empty ID
		{{Op: 0, ID: "x"}},                                                         // unknown op
		{{Op: MutAddNode, ID: "fresh", Label: "x"}, {Op: MutRemoveEdge, ID: "zz"}}, // fails mid-batch
	}
	before := dumpGraph(g)
	for i, muts := range cases {
		g2, err := g.Apply(muts)
		if err == nil {
			t.Fatalf("case %d: Apply succeeded, want error", i)
		}
		if g2 != nil {
			t.Fatalf("case %d: failed Apply returned a graph", i)
		}
	}
	if after := dumpGraph(g); after != before {
		t.Fatal("failed Apply batches changed the base graph")
	}
}

// TestApplyRandomizedChains drives long mutation chains over random graphs
// and checks, at every step, overlay-vs-materialized equivalence and that
// the immediate predecessor's view never changes.
func TestApplyRandomizedChains(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			b := NewBuilder()
			const n0 = 30
			labels := []string{"a", "b", "c"}
			for i := 0; i < n0; i++ {
				b.AddNode(NodeID(fmt.Sprintf("v%d", i)), "", Props{"k": Int(int64(i))})
			}
			for e := 0; e < 60; e++ {
				b.AddEdge(EdgeID(fmt.Sprintf("e%d", e)), labels[rng.Intn(3)],
					NodeID(fmt.Sprintf("v%d", rng.Intn(n0))),
					NodeID(fmt.Sprintf("v%d", rng.Intn(n0))), nil)
			}
			g := b.MustBuild()

			liveNodes := map[string]bool{}
			liveEdges := map[string]bool{}
			for i := 0; i < n0; i++ {
				liveNodes[fmt.Sprintf("v%d", i)] = true
			}
			for e := 0; e < 60; e++ {
				liveEdges[fmt.Sprintf("e%d", e)] = true
			}
			pick := func(set map[string]bool) string {
				keys := make([]string, 0, len(set))
				for k := range set {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				return keys[rng.Intn(len(keys))]
			}
			nextID := 1000
			for step := 0; step < 25; step++ {
				var muts []Mutation
				for len(muts) < 1+rng.Intn(6) {
					switch rng.Intn(6) {
					case 0:
						id := fmt.Sprintf("v%d", nextID)
						nextID++
						muts = append(muts, Mutation{Op: MutAddNode, ID: id, Label: "L", Props: Props{"k": Int(int64(nextID))}})
						liveNodes[id] = true
					case 1:
						if len(liveNodes) < 5 {
							continue
						}
						id := pick(liveNodes)
						muts = append(muts, Mutation{Op: MutRemoveNode, ID: id})
						delete(liveNodes, id)
						// Cascaded edges are detected lazily: the dump
						// comparison covers them; drop our bookkeeping of
						// edges whose endpoint is gone at apply time.
					case 2:
						id := fmt.Sprintf("e%d", nextID)
						nextID++
						muts = append(muts, Mutation{Op: MutAddEdge, ID: id,
							Label: labels[rng.Intn(3)], Src: pick(liveNodes), Tgt: pick(liveNodes)})
						liveEdges[id] = true
					case 3:
						if len(liveEdges) == 0 {
							continue
						}
						id := pick(liveEdges)
						if _, ok := g.EdgeIndex(EdgeID(id)); !ok {
							delete(liveEdges, id) // died in an earlier cascade
							continue
						}
						muts = append(muts, Mutation{Op: MutRemoveEdge, ID: id})
						delete(liveEdges, id)
					case 4:
						muts = append(muts, Mutation{Op: MutSetNodeProp, ID: pick(liveNodes), Prop: "k", Value: Int(int64(rng.Intn(100)))})
					case 5:
						muts = append(muts, Mutation{Op: MutSetNodeProp, ID: pick(liveNodes), Prop: "k", Value: Null()})
					}
				}
				// Mid-batch validity: a RemoveNode earlier in the batch may
				// cascade away an edge a later RemoveEdge targets, or a
				// node a later AddEdge references. Filter against a dry-run
				// application to keep batches valid.
				valid := muts[:0]
				probe := g
				for _, m := range muts {
					ng, err := probe.Apply([]Mutation{m})
					if err != nil {
						continue
					}
					probe = ng
					valid = append(valid, m)
				}
				before := dumpGraph(g)
				g2, err := g.Apply(valid)
				if err != nil {
					t.Fatalf("step %d: Apply: %v", step, err)
				}
				if dumpGraph(g) != before {
					t.Fatalf("step %d: Apply mutated its receiver", step)
				}
				if got, want := dumpGraph(g2), dumpGraph(probe); got != want {
					t.Fatalf("step %d: batch apply diverges from one-by-one apply", step)
				}
				checkEquivalence(t, g2)
				g = g2
			}
			if g.DeltaOps() == 0 {
				t.Fatal("chain ended with zero delta ops")
			}
			m, err := g.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			checkEquivalence(t, m)
		})
	}
}

func TestParseMutOpRoundTrip(t *testing.T) {
	for _, op := range []MutOp{MutAddNode, MutRemoveNode, MutAddEdge, MutRemoveEdge, MutSetNodeProp, MutSetEdgeProp} {
		back, err := ParseMutOp(op.String())
		if err != nil || back != op {
			t.Fatalf("ParseMutOp(%q) = %v, %v", op.String(), back, err)
		}
	}
	if _, err := ParseMutOp("bogus"); err == nil {
		t.Fatal("ParseMutOp accepted a bogus op")
	}
}
