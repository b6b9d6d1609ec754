// Overlay safety for the unified tiers: every tier evaluated directly on a
// mutated (overlay) graph must answer exactly as on the materialized
// rebuild. This is the crossval mirror of the engine-level
// TestOverlayQueriesMatchMaterialized, extended to the tiers PR 7 did not
// cover: pmr, relalg, and bag, alongside gql, coregql, and cypherfrag.
// (The spanner tier has no overlay case: its document line graph is built
// fresh per query, so every node and edge is always alive.)
package crossval_test

import (
	"reflect"
	"sort"
	"testing"

	"graphquery/internal/bag"
	"graphquery/internal/coregql"
	"graphquery/internal/cypherfrag"
	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/gql"
	"graphquery/internal/graph"
	"graphquery/internal/pmr"
	"graphquery/internal/relalg"
	"graphquery/internal/rpq"
)

// TestOverlayUnifiedTiersMatchMaterialized: the overlay and the rebuilt
// graph number nodes differently, so answers are compared as sorted sets
// rendered through external IDs.
func TestOverlayUnifiedTiersMatchMaterialized(t *testing.T) {
	base := gen.Random(60, 200, []string{"a", "b", "c"}, 11)
	muts := []graph.Mutation{
		{Op: graph.MutRemoveNode, ID: "v5"},
		{Op: graph.MutRemoveNode, ID: "v17"},
		{Op: graph.MutAddNode, ID: "w0", Label: "W"},
		{Op: graph.MutAddEdge, ID: "f0", Label: "a", Src: "w0", Tgt: "v1"},
		{Op: graph.MutAddEdge, ID: "f1", Label: "b", Src: "v2", Tgt: "w0"},
		{Op: graph.MutRemoveEdge, ID: "e10"},
		{Op: graph.MutRemoveEdge, ID: "e11"},
		{Op: graph.MutSetNodeProp, ID: "v1", Prop: "k", Value: graph.Int(7)},
	}
	over, err := base.Apply(muts)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := over.Materialize()
	if err != nil {
		t.Fatal(err)
	}

	check := func(label string, run func(g *graph.Graph) (any, error)) {
		t.Helper()
		got, err1 := run(over)
		want, err2 := run(mat)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: overlay err %v, materialized err %v", label, err1, err2)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: overlay answer differs from materialized\noverlay: %v\nmaterialized: %v",
				label, got, want)
		}
	}
	renderPairs := func(g *graph.Graph, prs [][2]int) any {
		out := make([]string, len(prs))
		for i, pr := range prs {
			out[i] = string(g.Node(pr[0]).ID) + "\x00" + string(g.Node(pr[1]).ID)
		}
		sort.Strings(out)
		return out
	}
	m := roomyMeter()

	check("gql", func(g *graph.Graph) (any, error) {
		p := gql.Concat(gql.Node("x"),
			gql.Star(gql.Concat(gql.AnonNode(), gql.AnonEdgeL("a"), gql.AnonNode())),
			gql.Node("y"))
		ms, err := gql.EvalPattern(g, p, gql.Options{MaxLen: 3, Meter: m})
		if err != nil {
			return nil, err
		}
		return renderPairs(g, projectPairs(g, ms)), nil
	})
	check("gql-fallback", func(g *graph.Graph) (any, error) {
		// A non-regular pattern (repeated variable) takes the metered
		// reference evaluator — the dense-loop alive skips under test.
		p := gql.Concat(gql.Node("x"), gql.AnonEdgeL("a"), gql.Node("x"))
		ms, err := gql.EvalPattern(g, p, gql.Options{Meter: m})
		if err != nil {
			return nil, err
		}
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = m.Path.Format(g)
		}
		sort.Strings(out)
		return out, nil
	})
	check("coregql", func(g *graph.Graph) (any, error) {
		p := coregql.Concat(coregql.Node("x"),
			coregql.Star(coregql.Concat(coregql.AnonNode(), coregql.AnonEdge(), coregql.AnonNode())),
			coregql.Node("y"))
		ms, err := coregql.EvalPattern(g, p, coregql.Options{MaxLen: 2, Meter: m})
		if err != nil {
			return nil, err
		}
		return renderPairs(g, projectPairs(g, ms)), nil
	})
	check("cypher", func(g *graph.Graph) (any, error) {
		p := cypherfrag.Concat(cypherfrag.Edge("a"), cypherfrag.StarOf("b", "c"))
		prs, err := eval.PairsProduct(eval.CompileProduct(g, cypherfrag.Compile(p)), eval.Options{Meter: m})
		if err != nil {
			return nil, err
		}
		return renderPairs(g, prs), nil
	})
	check("pmr", func(g *graph.Graph) (any, error) {
		s, ok1 := g.NodeIndex("v1")
		d, ok2 := g.NodeIndex("v2")
		if !ok1 || !ok2 {
			t.Fatal("anchor nodes missing")
		}
		rep, err := pmr.FromKernel(eval.CompileProduct(g, rpq.MustParse("a (a | b)*")).Kernel(), s, d, m)
		if err != nil {
			return nil, err
		}
		paths, err := rep.Enumerate(40, m)
		if err != nil {
			return nil, err
		}
		out := make([]string, len(paths))
		for i, p := range paths {
			out[i] = p.Format(g)
		}
		sort.Strings(out)
		return out, nil
	})
	check("relalg", func(g *graph.Graph) (any, error) {
		q := relalg.MustParseQuery("REACH(a*) AS (x, y) JOIN REACH(b) AS (y, z)")
		rel, err := relalg.EvalQuery(q, eval.Options{Meter: m}, products(g))
		if err != nil {
			return nil, err
		}
		rows := make([]string, 0, rel.Len())
		for _, tup := range rel.Sorted() {
			row := ""
			for _, c := range tup {
				row += c.Format(g) + "\x00"
			}
			rows = append(rows, row)
		}
		sort.Strings(rows)
		return rows, nil
	})
	check("bag-total", func(g *graph.Graph) (any, error) {
		n, err := bag.TotalCountMeter(g, rpq.MustParse("a b"), m)
		if err != nil {
			return nil, err
		}
		return n.String(), nil
	})
	check("bag-pair", func(g *graph.Graph) (any, error) {
		// Per-pair counts keyed by external ID: the counter's dense loops
		// and the kernel pruning must both ignore tombstones.
		e := rpq.MustParse("(a | b) c")
		out := map[string]string{}
		for u := 0; u < g.NumNodes(); u++ {
			if !g.NodeAlive(u) {
				continue
			}
			for v := 0; v < g.NumNodes(); v++ {
				if !g.NodeAlive(v) {
					continue
				}
				n, err := bag.CountMeter(g, e, u, v, m)
				if err != nil {
					return nil, err
				}
				if n.Sign() > 0 {
					out[string(g.Node(u).ID)+"\x00"+string(g.Node(v).ID)] = n.String()
				}
			}
		}
		return out, nil
	})
	check("bag-set", func(g *graph.Graph) (any, error) {
		return bag.SetCount(g, rpq.MustParse("a* b")), nil
	})
}
