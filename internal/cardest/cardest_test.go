package cardest_test

import (
	"fmt"
	"math/rand"
	"testing"

	"graphquery/internal/cardest"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
	pgplan "graphquery/internal/pg/plan"
	"graphquery/internal/rpq"
)

// collected is what the estimator's statistics were before they became a
// view: one pass over every edge of the graph. It stays here as the oracle
// the view is held to.
type collected struct {
	nodes, totalEdges int
	edgeCount         map[string]int
}

func collect(g *graph.Graph) collected {
	c := collected{nodes: g.NumLiveNodes(), edgeCount: map[string]int{}}
	for i := 0; i < g.NumEdges(); i++ {
		if !g.EdgeAlive(i) { // tombstoned under a mutation overlay
			continue
		}
		c.edgeCount[g.Edge(i).Label]++
		c.totalEdges++
	}
	return c
}

// graph builds a materialized graph holding exactly the collected numbers —
// so many nodes, so many edges under each label — which is all a planner
// reads: its plans are the plans "from the oracle's numbers".
func (c collected) graph() *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < c.nodes; i++ {
		b.AddNode(graph.NodeID(fmt.Sprint("n", i)), "", nil)
	}
	for label, n := range c.edgeCount {
		for i := 0; i < n; i++ {
			b.AddEdge(graph.EdgeID(fmt.Sprint(label, i)), label, "n0", "n0", nil)
		}
	}
	return b.MustBuild()
}

func TestCollect(t *testing.T) {
	g := gen.BankEdgeLabeled()
	s := cardest.Of(g)
	if s.Nodes != g.NumNodes() {
		t.Errorf("Nodes = %d", s.Nodes)
	}
	if s.EdgeCount("Transfer") != 10 {
		t.Errorf("Transfer count = %d, want 10", s.EdgeCount("Transfer"))
	}
	if s.EdgeCount("owner") != 6 || s.EdgeCount("isBlocked") != 6 {
		t.Error("owner/isBlocked counts wrong")
	}
	if s.EdgeCount("nolabel") != 0 {
		t.Error("a label the graph has never seen counts edges")
	}
	if s.TotalEdges != 22 {
		t.Errorf("TotalEdges = %d", s.TotalEdges)
	}
}

// checkStats holds the view over g to the scanning collector, and the plans
// made from the view to the plans made from the collector's numbers.
func checkStats(t *testing.T, what string, g *graph.Graph) {
	t.Helper()
	s, want := cardest.Of(g), collect(g)
	if s.Nodes != want.nodes || s.TotalEdges != want.totalEdges {
		t.Fatalf("%s: view has %d nodes, %d edges; a scan has %d, %d", what, s.Nodes, s.TotalEdges, want.nodes, want.totalEdges)
	}
	for _, label := range g.EdgeLabels() {
		if got := s.EdgeCount(label); got != want.edgeCount[label] {
			t.Fatalf("%s: EdgeCount(%q) = %d, a scan counts %d", what, label, got, want.edgeCount[label])
		}
	}
	view, oracle := pgplan.New(g), pgplan.New(want.graph())
	for _, q := range []string{"a*", "b b b", "a* z", "(!{b})* a", "(a|b)* a"} {
		nfa := rpq.Compile(rpq.MustParse(q))
		if got, want := view.ForNFA(nfa, 4, 2), oracle.ForNFA(nfa, 4, 2); got != want {
			t.Fatalf("%s: %q plans %s from the view, %s from a scan's numbers", what, q, got, want)
		}
		e := rpq.MustParse(q)
		if got, want := s.Estimate(e, 0), cardest.Of(want.graph()).Estimate(e, 0); got != want {
			t.Fatalf("%s: %q estimates %v rows from the view, %v from a scan's numbers", what, q, got, want)
		}
	}
}

// TestStatsFollowMutations is the statistics half of the generated mutation
// differential: along seeded mutation sequences — edges and nodes added and
// removed, a node removed with a self-loop and edges of several labels on
// it, a label first seen mid-chain, a label losing its last edge and getting
// one back, a batch that fails, a compaction half way — the statistics the
// graph keeps equal a fresh scan at every version, on the overlay and on its
// materialized rebuild, and so do the plans and estimates made from them.
func TestStatsFollowMutations(t *testing.T) {
	bases := map[string]*graph.Graph{
		"random":    gen.Random(60, 240, []string{"a", "b"}, 5),
		"scalefree": gen.ScaleFree(120, 3, 9),
	}
	for name, g := range bases {
		rng := rand.New(rand.NewSource(17))
		next := 0
		id := func(prefix string) string { next++; return fmt.Sprint(prefix, next) }
		node := func() string {
			for {
				if i := rng.Intn(g.NumNodes()); g.NodeAlive(i) {
					return string(g.NodeID(i))
				}
			}
		}
		edgesOf := func(label string) (ids []string) {
			for _, ei := range g.EdgesWithLabel(label) {
				ids = append(ids, string(g.Edge(ei).ID))
			}
			return ids
		}
		commit := func(what string, muts ...graph.Mutation) {
			t.Helper()
			ng, err := g.Apply(muts)
			if err != nil {
				t.Fatalf("%s %s: %v", name, what, err)
			}
			g = ng
			checkStats(t, name+" "+what, g)
			m, err := g.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			checkStats(t, name+" "+what+" (materialized)", m)
		}
		addEdge := func(label, src, tgt string) graph.Mutation {
			return graph.Mutation{Op: graph.MutAddEdge, ID: id("x"), Label: label, Src: src, Tgt: tgt}
		}
		random := func(steps int) {
			for i := 0; i < steps; i++ {
				var muts []graph.Mutation
				gone := map[int]bool{}
				for n := 1 + rng.Intn(5); len(muts) < n; {
					switch rng.Intn(5) {
					case 0, 1:
						muts = append(muts, addEdge([]string{"a", "b", "z"}[rng.Intn(3)], node(), node()))
					case 2, 3:
						if ei := rng.Intn(g.NumEdges()); g.EdgeAlive(ei) && !gone[ei] {
							gone[ei] = true
							muts = append(muts, graph.Mutation{Op: graph.MutRemoveEdge, ID: string(g.Edge(ei).ID)})
						}
					default:
						muts = append(muts, graph.Mutation{Op: graph.MutAddNode, ID: id("added")})
					}
				}
				if rng.Intn(4) == 0 {
					muts = append(muts, graph.Mutation{Op: graph.MutRemoveNode, ID: node()})
				}
				commit(fmt.Sprint("random batch ", i), muts...)
			}
		}

		checkStats(t, name+" base", g)
		random(10)
		// A label first seen in a batch, beside edges of known labels.
		commit("first fresh edge", addEdge("fresh", node(), node()), addEdge("a", node(), node()), addEdge("fresh", node(), node()))
		// A hub with a self-loop and edges of three labels, then gone.
		commit("hub", graph.Mutation{Op: graph.MutAddNode, ID: "hub"},
			addEdge("a", "hub", "hub"), addEdge("b", "hub", node()), addEdge("fresh", node(), "hub"), addEdge("a", node(), "hub"))
		commit("hub removed", graph.Mutation{Op: graph.MutRemoveNode, ID: "hub"})
		// The label's last edges go; the label stays known, with no edges.
		var drop []graph.Mutation
		for _, eid := range edgesOf("fresh") {
			drop = append(drop, graph.Mutation{Op: graph.MutRemoveEdge, ID: eid})
		}
		commit("last fresh edge removed", drop...)
		if got := cardest.Of(g).EdgeCount("fresh"); got != 0 {
			t.Fatalf("%s: %d edges under a label whose last edge was removed", name, got)
		}
		random(5)
		// A batch that fails half way leaves every count where it was.
		before := collect(g)
		if _, err := g.Apply([]graph.Mutation{addEdge("a", node(), node()), addEdge("fresh", node(), node()),
			{Op: graph.MutRemoveEdge, ID: "no-such-edge"}}); err == nil {
			t.Fatal("batch naming an unknown edge succeeded")
		}
		checkStats(t, name+" after a failed batch", g)
		if after := collect(g); after.totalEdges != before.totalEdges {
			t.Fatalf("%s: a failed batch moved the edge count %d -> %d", name, before.totalEdges, after.totalEdges)
		}
		commit("fresh re-added", addEdge("fresh", node(), node()))
		// Compaction: the chain starts over from a materialized base.
		m, err := g.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		g = m
		checkStats(t, name+" compacted", g)
		random(10)
	}
}

func TestEstimateExactCases(t *testing.T) {
	// Single label on a graph with no fan-out variance: estimate is exact.
	g := gen.APath(9, "a")
	s := cardest.Of(g)
	est := s.Estimate(rpq.MustParse("a"), 0)
	if est != 9 {
		t.Errorf("estimate(a) = %v, want 9", est)
	}
	// ε: every node pairs with itself.
	est = s.Estimate(rpq.MustParse("()"), 0)
	if est != 10 {
		t.Errorf("estimate(ε) = %v, want 10", est)
	}
	// Empty graph.
	empty := graph.NewBuilder().MustBuild()
	if got := cardest.Of(empty).Estimate(rpq.MustParse("a"), 0); got != 0 {
		t.Errorf("estimate on empty graph = %v", got)
	}
}

func TestEstimateCap(t *testing.T) {
	// On a clique, a* saturates at n² answer pairs.
	g := gen.Clique(5, "a")
	s := cardest.Of(g)
	est := s.Estimate(rpq.MustParse("a*"), 0)
	if est > 25 {
		t.Errorf("estimate exceeds the n² cap: %v", est)
	}
	if est < 20 {
		t.Errorf("estimate far below saturation: %v", est)
	}
}

func TestQError(t *testing.T) {
	if q := cardest.QError(10, 10); q != 1 {
		t.Errorf("perfect estimate q-error = %v", q)
	}
	if q := cardest.QError(10, 100); q < 9 {
		t.Errorf("10× over: q = %v", q)
	}
	if cardest.QError(0, 0) != 1 {
		t.Error("smoothed zero case should be 1")
	}
	if cardest.QError(100, 1) != cardest.QError(1, 100) {
		t.Error("q-error should be symmetric")
	}
}

func TestCompareReasonableOnRandomGraphs(t *testing.T) {
	queries := []string{"a", "b", "a b", "a | b", "a a", "a{2,3}"}
	for trial := 0; trial < 5; trial++ {
		g := gen.Random(60, 240, []string{"a", "b"}, int64(trial)*29+1)
		rows, err := cardest.Compare(g, queries)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			// Uniform random graphs are the estimator's best case: the
			// independence assumptions roughly hold. Allow generous slack.
			if r.QError > 8 {
				t.Errorf("trial %d %q: q-error %.2f (actual %d, est %.1f)",
					trial, r.Query, r.QError, r.Actual, r.Estimate)
			}
		}
	}
}

func TestCompareParseError(t *testing.T) {
	g := gen.APath(2, "a")
	if _, err := cardest.Compare(g, []string{"((("}); err == nil {
		t.Error("bad query should fail")
	}
}

func TestGuardEdges(t *testing.T) {
	g := gen.BankEdgeLabeled()
	s := cardest.Of(g)
	nfa := rpq.Compile(rpq.MustParse("!{Transfer}"))
	var total float64
	for _, trs := range nfa.Trans {
		for _, tr := range trs {
			total = s.GuardEdges(tr.Guard)
		}
	}
	if total != 12 { // 22 edges − 10 Transfer
		t.Errorf("guardEdges(!{Transfer}) = %v, want 12", total)
	}
}
