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
// semantics of Section 3.1.4, which may be infinite without bounds): the
// plan's walk in mode all from each live source, ending anywhere.
// MaxLen is required; Limit alone would need a global shortest-first merge.
func Eval(g *graph.Graph, e Expr, opts Options) ([]gpath.PathBinding, error) {
	if opts.MaxLen <= 0 {
		return nil, ErrUnbounded
	}
	p := NewPlan(eval.CompileProduct(g, Erase(e)).Kernel(), e)
	each := Options{MaxLen: opts.MaxLen, Meter: opts.Meter}
	var out []gpath.PathBinding
	for src := 0; src < g.NumNodes(); src++ {
		if !g.NodeAlive(src) { // tombstoned under a mutation overlay
			continue
		}
		res, err := p.Between(src, -1, eval.All, each)
		if err != nil {
			return nil, err
		}
		out = append(out, res...)
	}
	return gpath.Head(out, opts.Limit), nil
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
