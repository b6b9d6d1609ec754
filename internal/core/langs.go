// Engine entry points for the unified upper language tiers: GQL and
// CoreGQL patterns, Cypher-fragment path patterns, PMR enumeration,
// document spanners, relational algebra over reachability atoms, and
// bag-semantics counting all dispatch through QueryCtx like the classic
// kinds — one meter threaded through every stage, parse results in the
// plan cache, spans on the trace — so each tier inherits deadlines,
// budgets, live progress, and cooperative kill from the same machinery.

package core

import (
	"errors"
	"fmt"
	"math/big"
	"sort"

	"graphquery/internal/bag"
	"graphquery/internal/coregql"
	"graphquery/internal/cypherfrag"
	"graphquery/internal/eval"
	"graphquery/internal/gql"
	"graphquery/internal/graph"
	"graphquery/internal/obs"
	"graphquery/internal/pmr"
	"graphquery/internal/relalg"
	"graphquery/internal/rpq"
	"graphquery/internal/spanner"
)

// gqlMatchesMeter evaluates a GQL pattern to rendered matches.
func (e *Engine) gqlMatchesMeter(gs *graphState, query string, m *eval.Meter, tr *obs.Trace, maxLen, limit int) ([]string, error) {
	sp := tr.Start("parse")
	p, err := cached(e, gs, "gql", query, gql.ParsePattern)
	sp.End()
	if err != nil {
		return nil, badQuery(err)
	}
	s0, r0 := m.States(), m.Rows()
	sp = tr.Start("kernel")
	ms, err := gql.EvalPattern(gs.g, p, gql.Options{MaxLen: maxLen, Meter: m})
	sp.Counts(m.States()-s0, m.Rows()-r0).End()
	if err != nil {
		return nil, err
	}
	sp = tr.Start("enumerate")
	defer sp.End()
	return renderGQLMatches(gs.g, ms, limit), nil
}

func renderGQLMatches(g *graph.Graph, ms []gql.Match, limit int) []string {
	if limit > 0 && len(ms) > limit {
		ms = ms[:limit]
	}
	out := make([]string, len(ms))
	for i, m := range ms {
		line := m.Path.Format(g)
		vars := make([]string, 0, len(m.B))
		for v := range m.B {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		for _, v := range vars {
			line += "  " + v + "=" + m.B[v].Format(g)
		}
		out[i] = line
	}
	return out
}

// coreGQLMatchesMeter evaluates the CoreGQL fragment of a GQL pattern: the
// surface syntax is shared with gql, lowered onto coregql's label-free
// atoms (patterns outside the fragment are rejected as bad queries).
func (e *Engine) coreGQLMatchesMeter(gs *graphState, query string, m *eval.Meter, tr *obs.Trace, maxLen, limit int) ([]string, error) {
	sp := tr.Start("parse")
	p, err := cached(e, gs, "coregql", query, func(q string) (coregql.Pattern, error) {
		gp, err := gql.ParsePattern(q)
		if err != nil {
			return nil, err
		}
		return gql.ToCore(gp)
	})
	sp.End()
	if err != nil {
		return nil, badQuery(err)
	}
	s0, r0 := m.States(), m.Rows()
	sp = tr.Start("kernel")
	ms, err := coregql.EvalPattern(gs.g, p, coregql.Options{MaxLen: maxLen, Meter: m})
	sp.Counts(m.States()-s0, m.Rows()-r0).End()
	if err != nil {
		return nil, err
	}
	sp = tr.Start("enumerate")
	defer sp.End()
	if limit > 0 && len(ms) > limit {
		ms = ms[:limit]
	}
	out := make([]string, len(ms))
	for i, mt := range ms {
		line := mt.Path.Format(gs.g)
		vars := make([]string, 0, len(mt.Binding))
		for v := range mt.Binding {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		for _, v := range vars {
			line += "  " + v + "=" + formatObject(gs.g, mt.Binding[v])
		}
		out[i] = line
	}
	return out, nil
}

func formatObject(g *graph.Graph, o graph.Object) string {
	if o.IsEdge() {
		return string(g.Edge(o.Index()).ID)
	}
	return string(g.Node(o.Index()).ID)
}

// compileCypher parses a Cypher-fragment pattern, lowers it to its
// RPQ, and runs the full RPQ compilation pipeline (Glushkov, product
// resolution, cost-based planning) — the same rpqPlan the plain-RPQ path
// caches, so Cypher queries share the kernel, the planner, and the runtime
// counters.
func (e *Engine) compileCypher(gs *graphState, tr *obs.Trace) func(string) (rpqPlan, error) {
	return func(q string) (rpqPlan, error) {
		sp := tr.Start("parse")
		p, err := cypherfrag.Parse(q)
		sp.End()
		if err != nil {
			return rpqPlan{}, err
		}
		sp = tr.Start("compile")
		expr := cypherfrag.Compile(p)
		if err := rpq.CheckPositions(expr); err != nil {
			sp.End()
			return rpqPlan{}, err
		}
		nfa := rpq.Compile(expr)
		product := eval.NewProductInstrumented(gs.g, nfa, &e.counters)
		sp.End()
		sp = tr.Start("plan")
		plan := e.planFor(gs, nfa)
		sp.End()
		return rpqPlan{expr: expr, nfa: nfa, product: product, plan: plan}, nil
	}
}

// pmrPathsMeter builds the path-multiset representation of an RPQ between
// two nodes on the kernel and enumerates up to limit paths from it. PMR
// enumeration is output-linear but possibly infinite (cyclic path sets), so
// the limit is mandatory.
func (e *Engine) pmrPathsMeter(gs *graphState, query string, src, dst graph.NodeID, shortest bool, m *eval.Meter, tr *obs.Trace, limit int) ([]PathResult, error) {
	if limit <= 0 {
		return nil, badQuery(errors.New("core: pmr queries need a limit > 0 (path sets may be infinite)"))
	}
	u, ok := gs.g.NodeIndex(src)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, src)
	}
	v, ok := gs.g.NodeIndex(dst)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, dst)
	}
	plan, err := cached(e, gs, "rpq", query, e.compileRPQ(gs, tr))
	if err != nil {
		return nil, badQuery(err)
	}
	s0, r0 := m.States(), m.Rows()
	sp := tr.Start("kernel")
	var r *pmr.PMR
	if shortest {
		r, err = pmr.ShortestFromKernel(plan.product.Kernel(), u, v, m)
	} else {
		r, err = pmr.FromProductMeter(gs.g, plan.expr, u, v, m)
	}
	sp.Counts(m.States()-s0, m.Rows()-r0).End()
	if err != nil {
		return nil, err
	}
	s0, r0 = m.States(), m.Rows()
	sp = tr.Start("enumerate")
	paths, err := r.EnumerateMeter(limit, m)
	sp.Counts(m.States()-s0, m.Rows()-r0).End()
	if err != nil {
		return nil, err
	}
	out := make([]PathResult, len(paths))
	for i, p := range paths {
		out[i] = PathResult{Path: p}
	}
	return out, nil
}

// spannerMeter evaluates a document spanner over req.Doc: the kernel
// answers feasibility on the document's line graph, then the capture
// recursion runs metered. Matches render as sorted var=[start,end⟩ lines.
func (e *Engine) spannerMeter(gs *graphState, doc, query string, m *eval.Meter, tr *obs.Trace, limit int) ([]string, error) {
	sp := tr.Start("parse")
	expr, err := cached(e, gs, "spanner", query, spanner.Parse)
	sp.End()
	if err == nil {
		// The compiled size depends on the document, so the bound is asked
		// per request, not once per cached parse.
		err = spanner.CheckPositions(doc, expr)
	}
	if err != nil {
		return nil, badQuery(err)
	}
	s0, r0 := m.States(), m.Rows()
	sp = tr.Start("kernel")
	ms, err := spanner.EvaluateMeter(doc, expr, m)
	sp.Counts(m.States()-s0, m.Rows()-r0).End()
	if err != nil {
		return nil, err
	}
	sp = tr.Start("enumerate")
	defer sp.End()
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
	return out, nil
}

// relalgMeter evaluates a relational-algebra query whose REACH atoms run on
// the kernel.
func (e *Engine) relalgMeter(gs *graphState, query string, m *eval.Meter, tr *obs.Trace) (*relalg.Relation, error) {
	sp := tr.Start("parse")
	q, err := cached(e, gs, "relalg", query, relalg.ParseQuery)
	sp.End()
	if err != nil {
		return nil, badQuery(err)
	}
	s0, r0 := m.States(), m.Rows()
	sp = tr.Start("kernel")
	defer func() { sp.Counts(m.States()-s0, m.Rows()-r0).End() }()
	return relalg.EvalQuery(gs.g, q, eval.Options{Parallelism: e.Parallelism, Meter: m})
}

// bagMeter computes the bag-semantics total answer count of an RPQ — the
// Section 6.1 explosion quantity — with the kernel pruning the star
// recursion.
func (e *Engine) bagMeter(gs *graphState, query string, m *eval.Meter, tr *obs.Trace) (*big.Int, error) {
	sp := tr.Start("parse")
	expr, err := cached(e, gs, "bag", query, func(text string) (rpq.Expr, error) {
		expr, err := rpq.Parse(text)
		if err == nil {
			err = rpq.CheckPositions(expr)
		}
		return expr, err
	})
	sp.End()
	if err != nil {
		return nil, badQuery(err)
	}
	s0, r0 := m.States(), m.Rows()
	sp = tr.Start("kernel")
	defer func() { sp.Counts(m.States()-s0, m.Rows()-r0).End() }()
	return bag.TotalCountMeter(gs.g, expr, m)
}
