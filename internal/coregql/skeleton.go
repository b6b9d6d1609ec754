package coregql

import (
	"graphquery/internal/automata"
	"graphquery/internal/rpq"
)

// Which patterns of the GQL family are regular, and the RPQ of their path
// language. Nothing here evaluates: a pattern's one evaluator is its
// language's match enumerator, and a served regular pattern runs as the
// Cypher fragment does, as an RPQ on the plan cache's kernel.

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
