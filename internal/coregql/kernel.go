// Kernel unification of CoreGQL patterns (this PR's tentpole for the
// coregql tier): the path-finding core of a pattern — its regular skeleton,
// where every edge atom is label-free — compiles to an NFA and runs on the
// product-graph kernel, inheriting amortized cancellation, budgets, live
// progress, the cost-based planner, and the sharded direction-optimizing
// sweep. Bindings, conditions, and repeated-variable joins stay tier-local:
// PairsCtx routes regular patterns through the kernel and falls back to the
// metered reference evaluator otherwise, byte-identical on the common
// domain (crossval enforces this).
package coregql

import (
	"context"
	"sort"

	"graphquery/internal/automata"
	"graphquery/internal/eval"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// EvalPatternCtx is EvalPattern under a context and budget: every candidate
// the evaluator considers is charged to the states budget (amortized every
// pg.CheckInterval), each final match to the rows budget. Errors follow the
// standard taxonomy (pg.ErrCanceled, *pg.BudgetError) and return no partial
// results.
func EvalPatternCtx(ctx context.Context, g *graph.Graph, p Pattern, opts Options, b pg.Budget) ([]Match, error) {
	return EvalPatternMeter(g, p, opts, pg.NewMeter(ctx, b, nil, nil))
}

// EvalPatternMeter is EvalPattern with an explicit meter (may be nil).
func EvalPatternMeter(g *graph.Graph, p Pattern, opts Options, m *pg.Meter) ([]Match, error) {
	if err := Validate(p); err != nil {
		return nil, err
	}
	if hasUnboundedRepeat(p) && opts.MaxLen <= 0 {
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
// whose semantics exceed their skeleton fall back to the metered match
// evaluator plus endpoint projection. opts.MaxLen bounds path length in
// both paths — the kernel one via a length-unrolled automaton, so the two
// agree exactly.
func PairsCtx(ctx context.Context, g *graph.Graph, p Pattern, opts eval.Options) ([][2]int, error) {
	if Regular(p) {
		if hasUnboundedRepeat(p) && opts.MaxLen <= 0 {
			return nil, ErrUnbounded
		}
		nfa := rpq.Compile(Skeleton(p))
		if opts.MaxLen > 0 {
			nfa = automata.BoundLength(nfa, opts.MaxLen)
		}
		prod := eval.NewProductInstrumented(g, nfa, nil)
		return eval.PairsProductCtx(ctx, prod, opts)
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
// regular skeleton: no conditions and no variable occurring twice (a
// repeated variable is an equality join the skeleton cannot see). CoreGQL
// atoms carry no labels, so every remaining pattern is skeleton-faithful.
func Regular(p Pattern) bool {
	counts := map[string]int{}
	regular := true
	var walk func(Pattern)
	walk = func(p Pattern) {
		switch n := p.(type) {
		case NodePat:
			if n.Var != "" {
				counts[n.Var]++
			}
		case EdgePat:
			if n.Var != "" {
				counts[n.Var]++
			}
		case ConcatPat:
			walk(n.Left)
			walk(n.Right)
		case UnionPat:
			walk(n.Left)
			walk(n.Right)
		case RepeatPat:
			walk(n.Sub)
		case CondPat:
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

// Skeleton lowers a pattern to the RPQ of its path language: node patterns
// are ε, edge patterns match any single edge, and concatenation, union, and
// repetition map structurally. Total on Regular patterns; CondPat lowers to
// its subpattern's skeleton (an over-approximation — gate on Regular).
func Skeleton(p Pattern) rpq.Expr {
	switch n := p.(type) {
	case NodePat:
		return rpq.Eps()
	case EdgePat:
		return rpq.Any()
	case ConcatPat:
		return rpq.Seq(Skeleton(n.Left), Skeleton(n.Right))
	case UnionPat:
		return rpq.Alt(Skeleton(n.Left), Skeleton(n.Right))
	case RepeatPat:
		if n.Min == 0 && n.Max < 0 {
			return rpq.Kleene(Skeleton(n.Sub))
		}
		return rpq.Between(Skeleton(n.Sub), n.Min, n.Max)
	case CondPat:
		return Skeleton(n.Sub)
	default:
		return rpq.Eps()
	}
}
