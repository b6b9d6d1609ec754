package lrpq

import (
	"context"
	"errors"
	"sort"

	"graphquery/internal/eval"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
)

// ErrUnbounded mirrors eval.ErrUnbounded for ℓ-RPQ enumeration: ⟦R⟧_G can be
// infinite (Section 6.3 "Path and List Variables"), so mode all requires a
// bound.
var ErrUnbounded = errors.New("lrpq: unbounded enumeration under mode all requires MaxLen or Limit")

// Options bound result enumeration.
type Options struct {
	MaxLen int // bound on path length; 0 = unbounded
	Limit  int // bound on result count; 0 = unlimited (truncates, never errors)
	// Meter, when non-nil, enforces cooperative cancellation and per-query
	// resource budgets (product states visited, result rows) — shared by a
	// serving layer across all stages of one query.
	Meter *eval.Meter
	// Counters (may be nil) receives runtime counters (states expanded
	// by the search loops and kernel sweeps).
	Counters *pg.Counters
}

// EvalBetween computes m(σ_{u,v}(⟦R⟧_G)) — the path bindings between fixed
// endpoints under a path mode, with mode applied after endpoint selection
// exactly as in the restricted path homomorphisms of Section 3.1.5
// (Example 17's grouping by endpoint pairs).
//
// Results are (p, µ) pairs under set semantics, ordered by path length,
// then path key, then binding key. Distinct bindings over the same path are
// distinct results.
//
// With opts.Meter set, evaluation stops early with eval.ErrCanceled or
// eval.ErrBudgetExceeded; without one these errors are impossible.
//
// This is the one-shot form: it compiles a Plan for the call and evaluates
// on it. Callers that repeat an expression over one graph keep the Plan.
func EvalBetween(g *graph.Graph, e Expr, src, dst int, mode eval.Mode, opts Options) ([]gpath.PathBinding, error) {
	return NewPlan(g, e, opts.Counters).Between(src, dst, mode, opts)
}

// EvalBetweenCtx is EvalBetween under a context: when opts.Meter is unset,
// one is minted from ctx (with no budget) so cancellation reaches the
// enumeration loops.
func EvalBetweenCtx(ctx context.Context, g *graph.Graph, e Expr, src, dst int, mode eval.Mode, opts Options) ([]gpath.PathBinding, error) {
	if opts.Meter == nil {
		opts.Meter = eval.NewMeter(ctx, eval.Budget{})
	}
	return EvalBetween(g, e, src, dst, mode, opts)
}

// Eval enumerates ⟦R⟧_G from every source node, bounded by opts (the raw
// semantics of Section 3.1.4, which may be infinite without bounds).
// MaxLen is required; Limit alone would need a global shortest-first merge.
func Eval(g *graph.Graph, e Expr, opts Options) ([]gpath.PathBinding, error) {
	if opts.MaxLen <= 0 {
		return nil, ErrUnbounded
	}
	a := Compile(e)
	var out []gpath.PathBinding
	for src := 0; src < g.NumNodes(); src++ {
		if !g.NodeAlive(src) { // tombstoned under a mutation overlay
			continue
		}
		res, err := runSearchCompiled(g, a, src, -1, opts, nil, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, res...)
	}
	return sortPBs(out, opts.Limit), nil
}

// runBFSLimit enumerates (p, µ) shortest-first until limit results, for
// mode-all queries bounded only by Limit. Breadth-first layering guarantees
// termination and nondecreasing path lengths. Budget checks run through the
// runtime's Ticker (as in all search loops of this package).
func runBFSLimit(g *graph.Graph, a *VNFA, src, dst, limit int, m *eval.Meter, cnt *pg.Counters) ([]gpath.PathBinding, error) {
	type cfg struct {
		node, state int
		edges       []int
		vars        []string
	}
	queue := []cfg{{node: src, state: a.Start}}
	seen := map[string]struct{}{}
	var out []gpath.PathBinding
	tick := pg.NewTicker(m, cnt)
	for len(queue) > 0 && len(out) < limit {
		if err := tick.Step(); err != nil {
			return nil, err
		}
		c := queue[0]
		queue = queue[1:]
		if a.Accept[c.state] && (dst == -1 || c.node == dst) {
			pb := gpath.PathBinding{Path: buildPath(g, src, c.edges), Binding: buildBinding(g, c.edges, c.vars)}
			k := pb.Key()
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				out = append(out, pb)
				if err := m.AddRows(1); err != nil {
					return nil, err
				}
				if len(out) == limit {
					break
				}
			}
		}
		for _, ei := range g.Out(c.node) {
			lab := g.Edge(ei).Label
			for _, tr := range a.Trans[c.state] {
				if tr.Guard.Matches(lab) {
					ne := make([]int, len(c.edges)+1)
					copy(ne, c.edges)
					ne[len(c.edges)] = ei
					nv := make([]string, len(c.vars)+1)
					copy(nv, c.vars)
					nv[len(c.vars)] = tr.Var
					queue = append(queue, cfg{node: g.Edge(ei).Tgt, state: tr.To, edges: ne, vars: nv})
				}
			}
		}
	}
	if err := tick.Flush(); err != nil {
		return nil, err
	}
	return out, nil
}

func sortPBs(pbs []gpath.PathBinding, limit int) []gpath.PathBinding {
	sort.Slice(pbs, func(i, j int) bool {
		pi, pj := pbs[i], pbs[j]
		if pi.Path.Len() != pj.Path.Len() {
			return pi.Path.Len() < pj.Path.Len()
		}
		if ki, kj := pi.Path.Key(), pj.Path.Key(); ki != kj {
			return ki < kj
		}
		return pi.Binding.Key() < pj.Binding.Key()
	})
	if limit > 0 && len(pbs) > limit {
		pbs = pbs[:limit]
	}
	return pbs
}

// runSearch enumerates (p, µ) by DFS over the annotated product. dst = -1
// accepts any endpoint. usedNodes non-nil enforces simple paths; usedEdges
// non-nil enforces trails.
func runSearch(g *graph.Graph, a *VNFA, src, dst int, opts Options,
	usedNodes, usedEdges map[int]struct{}) ([]gpath.PathBinding, error) {
	return runSearchCompiled(g, a, src, dst, opts, usedNodes, usedEdges)
}

func runSearchCompiled(g *graph.Graph, a *VNFA, src, dst int, opts Options,
	usedNodes, usedEdges map[int]struct{}) ([]gpath.PathBinding, error) {

	m := opts.Meter
	seen := map[string]struct{}{}
	var out []gpath.PathBinding
	var edges []int
	var vars []string // variable per traversed edge ("" for none)
	limitHit := false
	var stopErr error
	tick := pg.NewTicker(m, opts.Counters)

	restricted := usedNodes != nil || usedEdges != nil

	emit := func(node int) {
		p := buildPath(g, src, edges)
		mu := buildBinding(g, edges, vars)
		pb := gpath.PathBinding{Path: p, Binding: mu}
		k := pb.Key()
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, pb)
			if err := m.AddRows(1); err != nil {
				stopErr = err
				return
			}
			if opts.Limit > 0 && len(out) >= opts.Limit && restricted {
				limitHit = true
			}
		}
	}

	var dfs func(node, state int)
	dfs = func(node, state int) {
		if limitHit || stopErr != nil {
			return
		}
		if err := tick.Step(); err != nil {
			stopErr = err
			return
		}
		if a.Accept[state] && (dst == -1 || node == dst) {
			emit(node)
			if stopErr != nil {
				return
			}
		}
		if opts.MaxLen > 0 && len(edges) == opts.MaxLen {
			return
		}
		for _, ei := range g.Out(node) {
			lab := g.Edge(ei).Label
			if usedEdges != nil {
				if _, used := usedEdges[ei]; used {
					continue
				}
			}
			tgt := g.Edge(ei).Tgt
			if usedNodes != nil {
				if _, used := usedNodes[tgt]; used {
					continue
				}
			}
			for _, tr := range a.Trans[state] {
				if !tr.Guard.Matches(lab) {
					continue
				}
				if usedEdges != nil {
					usedEdges[ei] = struct{}{}
				}
				if usedNodes != nil {
					usedNodes[tgt] = struct{}{}
				}
				edges = append(edges, ei)
				vars = append(vars, tr.Var)
				dfs(tgt, tr.To)
				edges = edges[:len(edges)-1]
				vars = vars[:len(vars)-1]
				if usedEdges != nil {
					delete(usedEdges, ei)
				}
				if usedNodes != nil {
					delete(usedNodes, tgt)
				}
			}
		}
	}
	dfs(src, a.Start)
	if stopErr == nil {
		stopErr = tick.Flush()
	}
	if stopErr != nil {
		return nil, stopErr
	}
	if restricted {
		return sortPBs(out, 0), nil
	}
	return sortPBs(out, opts.Limit), nil
}

// buildPath returns the node-to-node path that leaves src along edges.
func buildPath(g *graph.Graph, src int, edges []int) gpath.Path {
	objs := make([]graph.Object, 1, 2*len(edges)+1)
	objs[0] = graph.MakeNodeObject(src)
	for _, ei := range edges {
		objs = append(objs, graph.MakeEdgeObject(ei), graph.MakeNodeObject(g.EdgeTgt(ei)))
	}
	p, err := gpath.New(g, objs...)
	if err != nil {
		panic("lrpq: search produced a broken path: " + err.Error())
	}
	return p
}

func buildBinding(g *graph.Graph, edges []int, vars []string) gpath.Binding {
	var mu gpath.Binding
	for i, ei := range edges {
		if vars[i] == "" {
			continue
		}
		if mu == nil {
			mu = gpath.Binding{}
		}
		mu[vars[i]] = append(mu[vars[i]], graph.MakeEdgeObject(ei))
	}
	return mu
}

// BindingsOnPath runs the ℓ-RPQ over one fixed path and returns the distinct
// bindings of its accepting runs — the per-path blowup measure of Section
// 6.3 (the ℓ-RPQ (aa^z + a^z a)* produces 2ⁿ bindings on a single 2n-edge
// path).
func BindingsOnPath(g *graph.Graph, e Expr, p gpath.Path) []gpath.Binding {
	a := Compile(e)
	edges := p.Edges()
	type cfg struct {
		state int
		vars  []string
	}
	cur := []cfg{{state: a.Start}}
	for _, ei := range edges {
		lab := g.Edge(ei).Label
		var next []cfg
		for _, c := range cur {
			for _, tr := range a.Trans[c.state] {
				if tr.Guard.Matches(lab) {
					nv := make([]string, len(c.vars)+1)
					copy(nv, c.vars)
					nv[len(c.vars)] = tr.Var
					next = append(next, cfg{state: tr.To, vars: nv})
				}
			}
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	seen := map[string]struct{}{}
	var out []gpath.Binding
	for _, c := range cur {
		if !a.Accept[c.state] {
			continue
		}
		mu := buildBinding(g, edges, c.vars)
		k := mu.Key()
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, mu)
		}
	}
	return out
}
