package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"graphquery/internal/coregql"
	"graphquery/internal/cypherfrag"
	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/relalg"
	"graphquery/internal/rpq"
)

func init() {
	register(Experiment{
		ID:    "E13",
		Title: "Proposition 22: (ℓℓ)* is not a Cypher pattern",
		Claim: "no fragment pattern matches a-paths of even length only",
		Run:   runE13,
	})
	register(Experiment{
		ID:    "E14",
		Title: "Proposition 24: CoreGQL's one-directional information flow",
		Claim: "patterns are evaluated on G first, then algebra: reachability over an FO-transformed graph is out of reach",
		Run:   runE14,
	})
}

func runE13(w io.Writer) error {
	target := rpq.MustParse("(a a)*")
	res := cypherfrag.SearchEquivalent(target, []string{"a"}, 9)
	t := newTable("measure", "value")
	t.add("target RPQ", "(a a)*")
	t.add("fragment size bound", 9)
	t.add("language-distinct candidates explored", res.Candidates)
	if res.Found != nil {
		t.add("equivalent pattern found", res.Found.String())
	} else {
		t.add("equivalent pattern found", "none (consistent with Prop. 22)")
	}
	t.write(w)
	// Show a few witnesses: the first candidates in sorted order.
	fmt.Fprintln(w, "  sample refutations (candidate ⇒ separating word):")
	pats := make([]string, 0, len(res.Witnesses))
	for pat := range res.Witnesses {
		pats = append(pats, pat)
	}
	slices.Sort(pats)
	for _, pat := range pats[:min(4, len(pats))] {
		fmt.Fprintf(w, "    %-28s ⇒ %q\n", pat, strings.Join(res.Witnesses[pat], ""))
	}
	// Semantic demonstration: on a 5-edge path, (aa)* keeps only the
	// even-distance pairs; a* (the closest fragment expression) keeps all.
	g := gen.APath(5, "a")
	evenPairs := len(eval.Pairs(g, target))
	allPairs := len(eval.Pairs(g, rpq.MustParse("a*")))
	fmt.Fprintf(w, "  on a 5-edge path: |⟦(aa)*⟧| = %d vs |⟦a*⟧| = %d (parity matters)\n", evenPairs, allPairs)
	return nil
}

func runE14(w io.Writer) error {
	// Family: a directed path v0→…→vn. FO transformation T: complement the
	// edge relation (on distinct nodes). Reference query: is v0 connected
	// to v1 in T(G)? A language with nesting computes reach over T(G); the
	// CoreGQL pipeline can only run patterns on G and then apply algebra.
	fmt.Fprintln(w, "  reference: reachability evaluated on the complemented graph T(G);")
	fmt.Fprintln(w, "  CoreGQL proxy: relational algebra over pattern outputs computed on G")
	fmt.Fprintln(w, "  (one-step complement edges are FO-definable, but their transitive")
	fmt.Fprintln(w, "  closure cannot be formed after pattern matching).")
	t := newTable("n (path length)", "reach in T(G) v0→v1", "FO-definable 1-step proxy on G", "agrees")
	for _, n := range []int{2, 3, 5, 8} {
		g := gen.APath(n, "a")
		tg := complementGraph(g)
		meet, _ := eval.CompileProduct(tg, rpq.MustParse("a+")).Kernel().Between(tg.MustNode("v0"), tg.MustNode("v1"), nil) // nil meter: cannot fail
		ref := meet.Len >= 0

		// Best effort inside CoreGQL: the 1-step complement is expressible
		// as σ over the node-pair product minus the edge relation — but its
		// closure is not. We materialize exactly that one step.
		oneStep, err := coreGQLComplementStep(g)
		if err != nil {
			return err
		}
		v0, _ := g.NodeIndex("v0")
		v1, _ := g.NodeIndex("v1")
		proxy := oneStep.Contains(relalg.NodeCell(v0), relalg.NodeCell(v1))
		t.add(n, ref, proxy, ref == proxy)
	}
	t.write(w)
	fmt.Fprintln(w, "  (v0→v1 needs ≥2 complement steps on a path: the one-step proxy diverges — nesting is what's missing)")
	return nil
}

// complementGraph returns the edge-complement of g on distinct nodes, with
// all edges labeled a.
func complementGraph(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < g.NumNodes(); i++ {
		b.AddNode(g.Node(i).ID, g.Node(i).Label, nil)
	}
	has := map[[2]int]bool{}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(e)
		has[[2]int{ed.Src, ed.Tgt}] = true
	}
	k := 0
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			if u == v || has[[2]int{u, v}] {
				continue
			}
			b.AddEdge(graph.EdgeID(fmt.Sprintf("c%d", k)), "a", g.Node(u).ID, g.Node(v).ID, nil)
			k++
		}
	}
	return b.MustBuild()
}

// coreGQLComplementStep materializes the FO-definable one-step complement
// relation inside the CoreGQL pipeline: all node pairs minus the edge
// endpoints relation, minus the diagonal.
func coreGQLComplementStep(g *graph.Graph) (*relalg.Relation, error) {
	allU, err := coregql.Output(g, coregql.Node("u"), []string{"u"}, coregql.Options{})
	if err != nil {
		return nil, err
	}
	allV, err := coregql.Output(g, coregql.Node("v"), []string{"v"}, coregql.Options{})
	if err != nil {
		return nil, err
	}
	pairs, err := allU.Product(allV)
	if err != nil {
		return nil, err
	}
	edges, err := coregql.Output(g,
		coregql.Concat(coregql.Node("u"), coregql.AnonEdge(), coregql.Node("v")),
		[]string{"u", "v"}, coregql.Options{})
	if err != nil {
		return nil, err
	}
	nonEdges, err := pairs.Diff(edges)
	if err != nil {
		return nil, err
	}
	uc, _ := nonEdges.Col("u")
	vc, _ := nonEdges.Col("v")
	return nonEdges.Select(func(t []relalg.Cell) bool { return !t[uc].Equal(t[vc]) }), nil
}
