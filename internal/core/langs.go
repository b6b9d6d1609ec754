// Readers and evaluators of the upper language tiers' rows (kinds.go): GQL
// and CoreGQL patterns, Cypher-fragment path patterns, PMR enumeration,
// document spanners, relational algebra over reachability atoms, and
// bag-semantics counting are served like the classic kinds — one meter
// threaded through every stage, plans in the plan cache, spans on the
// trace — so each tier inherits deadlines, budgets, live progress, and
// cooperative kill from the same machinery.

package core

import (
	"math/big"
	"sort"

	"graphquery/internal/bag"
	"graphquery/internal/coregql"
	"graphquery/internal/cypherfrag"
	"graphquery/internal/eval"
	"graphquery/internal/gpath"
	"graphquery/internal/gql"
	"graphquery/internal/graph"
	"graphquery/internal/pmr"
	"graphquery/internal/relalg"
	"graphquery/internal/rpq"
	"graphquery/internal/spanner"
)

// gqlMatches evaluates a GQL pattern to rendered matches.
func gqlMatches(x *run, p gql.Pattern) (*Response, error) {
	g := x.gs.g
	ms, err := stage(x, "kernel", func() ([]gql.Match, error) {
		return gql.EvalPattern(g, p, gql.Options{MaxLen: x.maxLen, Meter: x.m})
	})
	if err != nil {
		return nil, err
	}
	return x.lines(stage(x, "enumerate", func() ([]string, error) {
		return renderMatches(g, ms, x.limit, func(v gql.BindVal) string { return v.Format(g) }), nil
	}))
}

// parseCoreGQL reads the CoreGQL fragment of a GQL pattern: the surface
// syntax is shared with gql, lowered onto coregql's label-free atoms
// (patterns outside the fragment are refused as bad queries).
func parseCoreGQL(text string) (coregql.Pattern, error) {
	gp, err := parseGQL(text)
	if err != nil {
		return nil, err
	}
	return gql.ToCore(gp)
}

// coreGQLMatches evaluates a CoreGQL pattern to rendered matches.
func coreGQLMatches(x *run, p coregql.Pattern) (*Response, error) {
	g := x.gs.g
	ms, err := stage(x, "kernel", func() ([]coregql.Match, error) {
		return coregql.EvalPattern(g, p, coregql.Options{MaxLen: x.maxLen, Meter: x.m})
	})
	if err != nil {
		return nil, err
	}
	return x.lines(stage(x, "enumerate", func() ([]string, error) {
		return renderMatches(g, ms, x.limit, g.ObjectID), nil
	}))
}

// parseGQL parses a served GQL pattern and refuses one whose skeleton would
// compile to more than rpq.MaxPositions positions: every node and edge atom
// counts, repetitions unrolled, a condition's subpattern included.
func parseGQL(q string) (gql.Pattern, error) {
	p, err := gql.ParsePattern(q)
	if err != nil {
		return nil, err
	}
	if err := rpq.CheckPositions(coregql.Skeleton(p)); err != nil {
		return nil, err
	}
	return p, nil
}

// renderMatches renders the first limit matches (all when limit <= 0): a
// match's path, then its bindings in variable order.
func renderMatches[V any](g *graph.Graph, ms []coregql.MatchOf[map[string]V], limit int, format func(V) string) []string {
	if limit > 0 && len(ms) > limit {
		ms = ms[:limit]
	}
	out := make([]string, len(ms))
	for i, m := range ms {
		line := m.Path.Format(g)
		vars := make([]string, 0, len(m.Binding))
		for v := range m.Binding {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		for _, v := range vars {
			line += "  " + v + "=" + format(m.Binding[v])
		}
		out[i] = line
	}
	return out
}

// readCypher reads a Cypher-fragment pattern, lowered to its RPQ, and runs
// the plain RPQ's compilation (Glushkov, product resolution, cost-based
// planning) — the same rpqPlan, so Cypher queries share the kernel, the
// planner, and the runtime counters with RPQs.
func readCypher(x *run, text string) (rpqPlan, error) {
	return x.planRPQ(reader(bounded(func(text string) (rpq.Expr, error) {
		p, err := cypherfrag.Parse(text)
		if err != nil {
			return nil, err
		}
		return cypherfrag.Compile(p), nil
	}))(x, text))
}

// pmrPaths builds the path-multiset representation of an RPQ between the
// anchors on the plan's kernel — of all paths, or of the shortest ones —
// and enumerates up to limit paths from it. PMR enumeration is output-linear
// but possibly infinite (cyclic path sets), so the limit is mandatory
// (pathSet).
func pmrPaths(x *run, p rpqPlan) (*Response, error) {
	build := pmr.FromKernel
	if x.req.Mode == eval.Shortest {
		build = pmr.ShortestFromKernel
	}
	r, err := stage(x, "kernel", func() (*pmr.PMR, error) { return build(p.product.Kernel(), x.u, x.v, x.m) })
	if err != nil {
		return nil, err
	}
	paths, err := stage(x, "enumerate", func() ([]gpath.Path, error) { return r.Enumerate(x.limit, x.m) })
	out := make([]PathResult, len(paths))
	for i, path := range paths {
		out[i] = PathResult{Path: path}
	}
	return x.paths(out, err)
}

// spannerSpans evaluates a document spanner over the request's Doc: the
// kernel answers feasibility on the document's line graph, then the
// capture recursion runs metered. Matches render as sorted var=[start,end⟩
// lines.
func spannerSpans(x *run, expr spanner.Expr) (*Response, error) {
	doc := x.req.Doc
	// The compiled size depends on the document, so the bound is asked
	// per request, not once per cached parse.
	if err := spanner.CheckPositions(doc, expr); err != nil {
		return nil, badQuery(err)
	}
	ms, err := stage(x, "kernel", func() ([]spanner.Match, error) { return spanner.EvaluateMeter(doc, expr, x.m) })
	if err != nil {
		return nil, err
	}
	return x.lines(stage(x, "enumerate", func() ([]string, error) { return renderSpans(ms, x.limit), nil }))
}

// renderSpans renders the first limit spanner matches (all when limit <=
// 0), each as its var=span pairs in variable order.
func renderSpans(ms []spanner.Match, limit int) []string {
	if limit > 0 && len(ms) > limit {
		ms = ms[:limit]
	}
	out := make([]string, len(ms))
	for i, mt := range ms {
		vars := make([]string, 0, len(mt))
		for v := range mt {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		line := ""
		for j, v := range vars {
			if j > 0 {
				line += "  "
			}
			line += v + "=" + mt[v].String()
		}
		out[i] = line
	}
	return out
}

// relalgRelation evaluates a relational-algebra query whose REACH atoms run
// on their expressions' kernels from the kernel cache; its tuples are
// delivered in their canonical order.
func relalgRelation(x *run, q relalg.Query) (*Response, error) {
	rel, err := stage(x, "kernel", func() (*relalg.Relation, error) {
		return relalg.EvalQuery(q, eval.Options{Parallelism: x.e.Parallelism, Meter: x.m}, x.product)
	})
	if err != nil {
		return nil, err
	}
	return x.rendered(&Response{Rel: rel}, rel.Attrs(), func(g *graph.Graph) RowBatch { return cellBatch(g, rel.Sorted()) })
}

// bagCount computes the bag-semantics total answer count of an RPQ — the
// Section 6.1 explosion quantity — with the kernel pruning the star
// recursion. It has one aggregate value and never touches the sink.
func bagCount(x *run, expr rpq.Expr) (*Response, error) {
	n, err := stage(x, "kernel", func() (*big.Int, error) { return bag.TotalCountMeter(x.gs.g, expr, x.m) })
	if err != nil {
		return nil, err
	}
	return &Response{Bag: n}, nil
}
