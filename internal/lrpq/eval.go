package lrpq

import (
	"errors"

	"graphquery/internal/eval"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
)

// ErrUnbounded is returned for an enumeration in mode all with neither
// MaxLen nor Limit: ⟦R⟧_G can be infinite (Section 6.3 "Path and List
// Variables"), so mode all requires a bound.
var ErrUnbounded = errors.New("lrpq: unbounded enumeration under mode all requires MaxLen or Limit")

// Options bound result enumeration.
type Options struct {
	MaxLen int // bound on path length; 0 = unbounded
	Limit  int // bound on result count; 0 = unlimited (truncates, never errors)
	// Meter, when non-nil, enforces cooperative cancellation and per-query
	// resource budgets (product states visited, result rows) — shared by a
	// serving layer across all stages of one query.
	Meter *pg.Meter
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
// With opts.Limit set the answer is the first Limit results of the
// unlimited answer, in every mode.
//
// With opts.Meter set, evaluation stops early with pg.ErrCanceled or
// pg.ErrBudgetExceeded; without one these errors are impossible.
//
// This is the one-shot form: it builds the product kernel of Erase(e) and a
// Plan on it for the call. Callers that repeat an expression over one graph
// keep the Plan.
func EvalBetween(g *graph.Graph, e Expr, src, dst int, mode eval.Mode, opts Options) ([]gpath.PathBinding, error) {
	return NewPlan(eval.CompileProduct(g, Erase(e)).Kernel(), e).Between(src, dst, mode, opts)
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
		res, _, err := search(g, a, src, -1, eval.All, opts, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, res...)
	}
	return gpath.Head(out, opts.Limit), nil
}

// deepen answers a query with a limit in mode simple, in mode trail, or in
// mode all bounded by the limit alone (gpath.Deepen). Each pass is charged
// its states and rows on the meter again: the repeated work is real work.
// A run goes through the product states of k, which end a search whose
// answer is shorter than the limit.
func deepen(k *pg.Kernel, a *VNFA, src, dst int, mode eval.Mode, opts Options) ([]gpath.PathBinding, error) {
	return gpath.Deepen(opts.Limit, opts.MaxLen, k.NumProductStates(), func(bound int) ([]gpath.PathBinding, bool, error) {
		pass := opts
		pass.MaxLen = bound
		return search(k.Graph(), a, src, dst, mode, pass, k.Counters())
	})
}

// search enumerates (p, µ) by DFS over the annotated product, from src to
// dst (-1: any endpoint), in mode all, simple (no node twice) or trail (no
// edge twice), up to opts.MaxLen edges (0: unbounded). cut reports whether
// the bound stopped a branch that had an edge and a transition left. Every expanded
// configuration is a step on opts.Meter, and on c (may be nil), and every
// distinct result a row on the meter as it is found.
func search(g *graph.Graph, a *VNFA, src, dst int, mode eval.Mode, opts Options, c *pg.Counters) (out []gpath.PathBinding, cut bool, err error) {
	m := opts.Meter
	var usedNodes, usedEdges map[int]struct{}
	switch mode {
	case eval.Simple:
		usedNodes = map[int]struct{}{src: {}}
	case eval.Trail:
		usedEdges = map[int]struct{}{}
	}
	seen := map[string]struct{}{}
	var edges []int
	var vars []string // variable per traversed edge ("" for none)
	tick := pg.NewTicker(m, c)

	var dfs func(node, state int) error
	dfs = func(node, state int) error {
		if err := tick.Step(); err != nil {
			return err
		}
		if a.Accept[state] && (dst == -1 || node == dst) {
			pb := gpath.PathBinding{Path: gpath.FromEdges(g, src, edges), Binding: buildBinding(g, edges, vars)}
			if k := pb.Key(); !has(seen, k) {
				seen[k] = struct{}{}
				out = append(out, pb)
				if err := m.AddRows(1); err != nil {
					return err
				}
			}
		}
		if opts.MaxLen > 0 && len(edges) == opts.MaxLen {
			cut = cut || len(a.Trans[state]) > 0 && len(g.Out(node)) > 0
			return nil
		}
		for _, ei := range g.Out(node) {
			tgt := g.EdgeTgt(ei)
			if has(usedEdges, ei) || has(usedNodes, tgt) {
				continue
			}
			lab := g.LabelName(g.EdgeLabelID(ei))
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
				err := dfs(tgt, tr.To)
				edges = edges[:len(edges)-1]
				vars = vars[:len(vars)-1]
				delete(usedEdges, ei)
				delete(usedNodes, tgt)
				if err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := dfs(src, a.Start); err != nil {
		return nil, false, err
	}
	if err := tick.Flush(); err != nil {
		return nil, false, err
	}
	return out, cut, nil
}

// has reports whether set holds k; a nil set holds nothing.
func has[K comparable](set map[K]struct{}, k K) bool {
	_, ok := set[k]
	return ok
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
		lab := g.LabelName(g.EdgeLabelID(ei))
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
