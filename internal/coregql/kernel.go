package coregql

import (
	"sort"

	"graphquery/internal/automata"
	"graphquery/internal/eval"
	"graphquery/internal/graph"
	"graphquery/internal/rpq"
)

// A regular pattern's path finding runs on the product-graph kernel: its
// skeleton over edge labels compiles to an NFA. What stays tier-local is
// what is not regular — bindings, group variables, conditions, node-label
// tests and repeated-variable joins — so Pairs falls back to the match
// enumerator for those; the two paths are byte-identical on their common
// domain, which crossval enforces. Everything here serves every pattern
// language of the GQL family: CoreGQL, and GQL (package gql).

// Pairs computes the endpoint pairs of the pattern's match set —
// {(src(ρ), tgt(ρ)) | ρ matches π} as sorted, deduplicated (u,v) index
// pairs. Regular patterns run entirely on the product-graph kernel
// (opts.Plan, opts.Parallelism and opts.Meter apply); patterns whose
// semantics exceed their skeleton fall back to the metered match
// evaluator plus endpoint projection. opts.MaxLen bounds path length in
// both paths — the kernel one via a length-unrolled automaton, so the two
// agree exactly.
func Pairs(g *graph.Graph, p Pattern, opts eval.Options) ([][2]int, error) {
	return PairsOf(g, p, opts, EvalPattern)
}

// PairsOf is Pairs for a pattern of any language of the GQL family, match
// being that language's evaluator. A regular pattern that repeats without
// bound and has no MaxLen is left to match, which refuses it.
func PairsOf[L automata.Language, B any](g *graph.Graph, p automata.Expr[L], opts eval.Options,
	match func(*graph.Graph, automata.Expr[L], Options) ([]MatchOf[B], error)) ([][2]int, error) {
	if Regular(p) && (opts.MaxLen > 0 || !Unbounded(p)) {
		nfa := rpq.Compile(Skeleton(p))
		if opts.MaxLen > 0 {
			nfa = automata.BoundLength(nfa, opts.MaxLen)
		}
		prod := eval.NewProductInstrumented(g, nfa, nil)
		return eval.PairsProduct(prod, opts)
	}
	ms, err := match(g, p, Options{MaxLen: opts.MaxLen, Meter: opts.Meter})
	if err != nil {
		return nil, err
	}
	return ProjectPairs(g, ms), nil
}

// ProjectPairs projects matches onto sorted, deduplicated endpoint pairs.
func ProjectPairs[B any](g *graph.Graph, ms []MatchOf[B]) [][2]int {
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
// regular skeleton over edge labels: no conditions, no node-label tests,
// and no variable occurring twice (a repeated singleton variable is an
// equality join the skeleton cannot see). Variables occurring once never
// constrain the path set.
func Regular[L automata.Language](p automata.Expr[L]) bool {
	counts := map[string]int{}
	regular := true
	walk(p, func(n automata.Expr[L]) {
		switch n := n.(type) {
		case Where[L]:
			regular = false
		case Elem:
			edge, label, v := n.Elem()
			if !edge && label != "" {
				regular = false
			}
			if v != "" {
				counts[v]++
			}
		}
	})
	for _, c := range counts {
		if c > 1 {
			return false
		}
	}
	return regular
}

// Unbounded reports whether the pattern repeats something without bound.
func Unbounded[L automata.Language](p automata.Expr[L]) bool {
	unbounded := false
	walk(p, func(n automata.Expr[L]) {
		switch n := n.(type) {
		case automata.Star[L]:
			unbounded = true
		case automata.Repeat[L]:
			unbounded = unbounded || n.Max < 0
		}
	})
	return unbounded
}

// walk calls f on p and on every subpattern of it, a condition's included.
func walk[L automata.Language](p automata.Expr[L], f func(automata.Expr[L])) {
	automata.Walk(p, func(n automata.Expr[L]) {
		f(n)
		if w, ok := n.(Where[L]); ok {
			sub, _ := w.Where()
			walk(sub, f)
		}
	})
}

// Skeleton lowers a pattern to the RPQ of its path language: node atoms
// are ε, edge atoms their label (or any label), a condition its
// subpattern's skeleton, and concatenation, union and repetition map
// structurally. It is the path language exactly on Regular patterns and
// over-approximates it elsewhere; either way it has a position for every
// node and edge atom, which is what the served compile bound counts.
func Skeleton[L automata.Language](p automata.Expr[L]) rpq.Expr {
	return automata.Map(p, func(a automata.Expr[L]) rpq.Expr {
		if f, ok := a.(Where[L]); ok {
			sub, _ := f.Where()
			return Skeleton(sub)
		}
		switch edge, label, _ := a.(Elem).Elem(); {
		case !edge:
			return rpq.Eps()
		case label == "":
			return rpq.Any()
		default:
			return rpq.L(label)
		}
	})
}
