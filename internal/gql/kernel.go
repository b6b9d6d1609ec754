// Kernel unification of GQL patterns (this PR's tentpole for the gql
// tier): the pure path-finding core of a pattern — its regular skeleton
// over edge labels — compiles to an NFA and runs on the product-graph
// kernel, inheriting amortized cancellation, budgets, live progress, the
// cost-based planner, and the sharded direction-optimizing sweep. What
// stays tier-local is exactly what is not regular: bindings, group
// variables, WHERE conditions, node-label tests, and repeated-variable
// joins. PairsCtx routes regular patterns through the kernel and falls
// back to the (metered) reference evaluator otherwise; the two paths are
// byte-identical on their common domain, which crossval enforces.
package gql

import (
	"context"
	"sort"

	"graphquery/internal/automata"
	"graphquery/internal/coregql"
	"graphquery/internal/eval"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// EvalPatternCtx is EvalPattern under a context and budget: every
// candidate the evaluator considers is charged to the states budget
// (amortized every pg.CheckInterval), each final match to the rows
// budget. Errors follow the standard taxonomy (pg.ErrCanceled,
// *pg.BudgetError) and return no partial results.
func EvalPatternCtx(ctx context.Context, g *graph.Graph, p Pattern, opts Options, b pg.Budget) ([]Match, error) {
	return EvalPatternMeter(g, p, opts, pg.NewMeter(ctx, b, nil, nil))
}

// EvalPatternMeter is EvalPattern with an explicit meter (may be nil).
func EvalPatternMeter(g *graph.Graph, p Pattern, opts Options, m *pg.Meter) ([]Match, error) {
	if hasUnbounded(p) && opts.MaxLen <= 0 {
		return nil, ErrUnbounded
	}
	tick := pg.NewTicker(m, nil)
	opts.tick = &tick
	ms, err := evalRec(g, p, opts)
	if err != nil {
		return nil, err
	}
	if err := tick.Flush(); err != nil {
		return nil, err
	}
	if err := m.AddRows(int64(len(ms))); err != nil {
		return nil, err
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Path.Len() != ms[j].Path.Len() {
			return ms[i].Path.Len() < ms[j].Path.Len()
		}
		return ms[i].key() < ms[j].key()
	})
	return ms, nil
}

// PairsCtx computes the endpoint pairs of the pattern's match set —
// {(src(ρ), tgt(ρ)) | ρ matches π} as sorted, deduplicated (u,v) index
// pairs. Regular patterns run entirely on the product-graph kernel
// (opts.Plan, opts.Parallelism, budgets, and meter all apply); patterns
// whose semantics are not captured by their skeleton fall back to the
// metered match evaluator plus endpoint projection. opts.MaxLen bounds
// path length in both paths — the kernel one via a length-unrolled
// automaton, so the two agree exactly.
func PairsCtx(ctx context.Context, g *graph.Graph, p Pattern, opts eval.Options) ([][2]int, error) {
	if Regular(p) {
		e, err := Skeleton(p)
		if err == nil {
			if hasUnbounded(p) && opts.MaxLen <= 0 {
				return nil, ErrUnbounded
			}
			nfa := rpq.Compile(e)
			if opts.MaxLen > 0 {
				nfa = BoundLength(nfa, opts.MaxLen)
			}
			prod := eval.NewProductInstrumented(g, nfa, nil)
			return eval.PairsProductCtx(ctx, prod, opts)
		}
	}
	// Fallback: reference evaluator + projection.
	m := opts.Meter
	if m == nil {
		m = pg.NewMeter(ctx, opts.Budget, nil, nil)
	}
	ms, err := EvalPatternMeter(g, p, Options{MaxLen: opts.MaxLen}, m)
	if err != nil {
		return nil, err
	}
	return ProjectPairs(g, ms), nil
}

// ProjectPairs projects matches onto sorted, deduplicated endpoint pairs.
func ProjectPairs(g *graph.Graph, ms []Match) [][2]int {
	seen := map[[2]int]struct{}{}
	var out [][2]int
	for _, m := range ms {
		s, ok1 := m.Path.Src(g)
		t, ok2 := m.Path.Tgt(g)
		if !ok1 || !ok2 {
			continue
		}
		pr := [2]int{s, t}
		if _, dup := seen[pr]; dup {
			continue
		}
		seen[pr] = struct{}{}
		out = append(out, pr)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Regular reports whether the pattern's match set is determined by its
// regular skeleton over edge labels: no WHERE conditions, no node-label
// tests, and no variable occurring twice (a repeated singleton variable
// is an equality join the skeleton cannot see). Variables occurring once
// never constrain the path set.
func Regular(p Pattern) bool {
	counts := map[string]int{}
	regular := true
	var walk func(Pattern)
	walk = func(p Pattern) {
		switch n := p.(type) {
		case NodeP:
			if n.Label != "" {
				regular = false
			}
			if n.Var != "" {
				counts[n.Var]++
			}
		case EdgeP:
			if n.Var != "" {
				counts[n.Var]++
			}
		case ConcatP:
			walk(n.Left)
			walk(n.Right)
		case UnionP:
			walk(n.Left)
			walk(n.Right)
		case RepeatP:
			walk(n.Sub)
		case CondP:
			regular = false
		default:
			regular = false
		}
	}
	walk(p)
	if !regular {
		return false
	}
	for _, c := range counts {
		if c > 1 {
			return false
		}
	}
	return true
}

// Skeleton lowers a pattern to the RPQ of its edge-label language: node
// patterns are ε, edges are their label (or any-label), concatenation,
// union, and repetition map structurally. Callers should gate on Regular —
// for non-regular patterns the skeleton over-approximates the path set.
func Skeleton(p Pattern) (rpq.Expr, error) {
	switch n := p.(type) {
	case NodeP:
		return rpq.Eps(), nil
	case EdgeP:
		if n.Label == "" {
			return rpq.Any(), nil
		}
		return rpq.L(n.Label), nil
	case ConcatP:
		l, err := Skeleton(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := Skeleton(n.Right)
		if err != nil {
			return nil, err
		}
		return rpq.Seq(l, r), nil
	case UnionP:
		l, err := Skeleton(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := Skeleton(n.Right)
		if err != nil {
			return nil, err
		}
		return rpq.Alt(l, r), nil
	case RepeatP:
		sub, err := Skeleton(n.Sub)
		if err != nil {
			return nil, err
		}
		if n.Min == 0 && n.Max < 0 {
			return rpq.Kleene(sub), nil
		}
		return rpq.Between(sub, n.Min, n.Max), nil
	case CondP:
		return nil, ErrNotRegular
	default:
		return nil, ErrNotRegular
	}
}

// ErrNotRegular reports a pattern whose semantics exceed its skeleton.
var ErrNotRegular = errorsNotRegular{}

type errorsNotRegular struct{}

func (errorsNotRegular) Error() string {
	return "gql: pattern is not regular (conditions, node labels, or repeated variables)"
}

// BoundLength unrolls the automaton against a length counter so the bounded
// automaton accepts exactly the words of a's language with length ≤ maxLen.
// This is how the kernel path reproduces the evaluator's MaxLen bound bit
// for bit. The construction lives in automata.BoundLength so every tier can
// share it.
func BoundLength(a *automata.NFA, maxLen int) *automata.NFA {
	return automata.BoundLength(a, maxLen)
}

// ToCore lowers a gql pattern onto the CoreGQL fragment (Section 4's
// design kernel): node labels are dropped from the pattern surface —
// CoreGQL has no label atoms — so patterns using them are rejected rather
// than silently widened.
func ToCore(p Pattern) (coregql.Pattern, error) {
	switch n := p.(type) {
	case NodeP:
		if n.Label != "" {
			return nil, errorsNotCore{"node labels"}
		}
		return coregql.NodePat{Var: n.Var}, nil
	case EdgeP:
		if n.Label != "" {
			return nil, errorsNotCore{"edge labels"}
		}
		return coregql.EdgePat{Var: n.Var}, nil
	case ConcatP:
		l, err := ToCore(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := ToCore(n.Right)
		if err != nil {
			return nil, err
		}
		return coregql.ConcatPat{Left: l, Right: r}, nil
	case UnionP:
		l, err := ToCore(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := ToCore(n.Right)
		if err != nil {
			return nil, err
		}
		return coregql.UnionPat{Left: l, Right: r}, nil
	case RepeatP:
		sub, err := ToCore(n.Sub)
		if err != nil {
			return nil, err
		}
		return coregql.RepeatPat{Sub: sub, Min: n.Min, Max: n.Max}, nil
	case CondP:
		sub, err := ToCore(n.Sub)
		if err != nil {
			return nil, err
		}
		return coregql.CondPat{Sub: sub, Cond: n.Cond}, nil
	default:
		return nil, errorsNotCore{"unknown pattern"}
	}
}

type errorsNotCore struct{ what string }

func (e errorsNotCore) Error() string {
	return "gql: pattern does not fit the CoreGQL fragment (" + e.what + ")"
}
