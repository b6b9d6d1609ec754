// Package cypherfrag implements the Cypher pattern fragment of Section 5.1
// used for Proposition 22: patterns are built from label-disjunction edges,
// starred label disjunctions (repetition is allowed only over disjunctions
// of labels), concatenation, and union —
//
//	π := (x:L) | -x:L-> | -:L*-> | π₁ π₂ | π₁ + π₂
//
// Since the proposition concerns the edge-label languages such patterns can
// match, the package works with the label-language view: node patterns
// contribute ε. Compile translates a fragment pattern to an RPQ, and
// SearchEquivalent performs the bounded-exhaustive expressiveness search
// used to exhibit Proposition 22 empirically ("the RPQ (ℓℓ)* is not
// expressible using Cypher patterns"). Concatenation and union are the
// shared regular-expression nodes of package automata; the fragment keeps
// only its two atoms (DESIGN §23).
package cypherfrag

import (
	"sort"
	"strings"

	"graphquery/internal/automata"
	"graphquery/internal/rpq"
)

// lang is the Cypher-fragment tag type: the fragment writes union as +.
type lang struct{}

func (lang) Notation() automata.Notation {
	return automata.Notation{Open: "(", Close: ")", Epsilon: "()", Seq: " ", Or: " + "}
}

// Pattern is a Cypher-fragment pattern (label-language view): its
// concatenations and unions are automata.Concat and automata.Alternation
// of this language, its atoms EdgeDisj and StarDisj.
type Pattern = automata.Expr[lang]

// EdgeDisj is -:ℓ₁|…|ℓₙ->: one edge whose label is in the disjunction.
type EdgeDisj struct{ Labels []string }

// StarDisj is -:(ℓ₁|…|ℓₙ)*->: any number of edges with labels from the
// disjunction — the only repetition Cypher patterns allow (Section 5.1).
type StarDisj struct{ Labels []string }

func (EdgeDisj) Language() lang { return lang{} }
func (StarDisj) Language() lang { return lang{} }

func (p EdgeDisj) String() string { return "-[:" + strings.Join(p.Labels, "|") + "]->" }
func (p StarDisj) String() string { return "-[:(" + strings.Join(p.Labels, "|") + ")*]->" }

// Edge returns the single-edge pattern over a label disjunction.
func Edge(labels ...string) Pattern {
	return EdgeDisj{Labels: sortedLabels(labels)}
}

// StarOf returns the starred label disjunction.
func StarOf(labels ...string) Pattern {
	return StarDisj{Labels: sortedLabels(labels)}
}

// Concat chains fragment patterns.
func Concat(ps ...Pattern) Pattern { return automata.Seq(ps...) }

// Union returns π₁ + π₂.
func Union(a, b Pattern) Pattern { return automata.Alt(a, b) }

func sortedLabels(ls []string) []string {
	out := append([]string(nil), ls...)
	sort.Strings(out)
	return out
}

// Compile translates the fragment pattern to an RPQ over edge labels.
func Compile(p Pattern) rpq.Expr {
	return automata.Map(p, func(a Pattern) rpq.Expr {
		if s, ok := a.(StarDisj); ok {
			return rpq.Kleene(disjExpr(s.Labels))
		}
		return disjExpr(a.(EdgeDisj).Labels)
	})
}

func disjExpr(labels []string) rpq.Expr {
	alts := make([]rpq.Expr, len(labels))
	for i, l := range labels {
		alts[i] = rpq.L(l)
	}
	return rpq.Alt(alts...)
}

// Size is the syntactic size measure of the bounded-exhaustive search:
// atoms count 1, and every binary concatenation or union 1 plus its parts
// — an n-ary node counts as its n−1 binary operators.
func Size(p Pattern) int {
	var parts []Pattern
	switch n := p.(type) {
	case automata.Concat[lang]:
		parts = n.Parts
	case automata.Alternation[lang]:
		parts = n.Alts
	default:
		return 1
	}
	size := len(parts) - 1
	for _, part := range parts {
		size += Size(part)
	}
	return size
}

// SearchResult reports the outcome of a bounded-exhaustive search.
type SearchResult struct {
	// Found is the equivalent fragment pattern, if any.
	Found Pattern
	// Candidates is the number of language-distinct fragment patterns
	// explored.
	Candidates int
	// Witnesses maps each explored language (by a representative pattern
	// rendering) to a word distinguishing it from the target.
	Witnesses map[string][]string
}

// SearchEquivalent enumerates all fragment patterns over the given labels
// up to the size bound and reports whether any is language-equivalent to
// the target RPQ. For each inequivalent candidate language it records a
// distinguishing word (a witness from the symmetric difference), which is
// how Proposition 22's claim is exhibited empirically.
func SearchEquivalent(target rpq.Expr, labels []string, maxSize int) SearchResult {
	targetNFA := rpq.Compile(target)
	universe := append(append([]string(nil), labels...), rpq.Labels(target)...)

	res := SearchResult{Witnesses: map[string][]string{}}

	// atoms: all nonempty label subsets as single edges and stars.
	subsets := nonEmptySubsets(labels)
	var atoms []Pattern
	for _, s := range subsets {
		atoms = append(atoms, Edge(s...), StarOf(s...))
	}

	// bySize[s] holds one representative per distinct language of size s.
	bySize := make([][]Pattern, maxSize+1)
	seenLang := map[string]struct{}{}

	tryAdd := func(p Pattern, size int) (equivalent bool) {
		nfa := rpq.Compile(Compile(p))
		canon := nfa.DeterminizeOver(universe).Canonical()
		if _, dup := seenLang[canon]; dup {
			return false
		}
		seenLang[canon] = struct{}{}
		bySize[size] = append(bySize[size], p)
		res.Candidates++
		if automata.Equivalent(nfa, targetNFA) {
			res.Found = p
			return true
		}
		// Record a distinguishing witness word.
		if w, ok := automata.Distinguish(nfa, targetNFA, universe, "other"); ok {
			res.Witnesses[p.String()] = w
		}
		return false
	}

	for _, a := range atoms {
		if tryAdd(a, 1) {
			return res
		}
	}
	for size := 2; size <= maxSize; size++ {
		// Composites: left size i, right size size-1-i (operator costs 1).
		for i := 1; i <= size-2; i++ {
			j := size - 1 - i
			for _, l := range bySize[i] {
				for _, r := range bySize[j] {
					if tryAdd(Concat(l, r), size) {
						return res
					}
					if tryAdd(Union(l, r), size) {
						return res
					}
				}
			}
		}
	}
	return res
}

func nonEmptySubsets(labels []string) [][]string {
	var out [][]string
	n := len(labels)
	for mask := 1; mask < 1<<n; mask++ {
		var s []string
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s = append(s, labels[i])
			}
		}
		out = append(out, s)
	}
	return out
}
