package automata

import (
	"fmt"
	"sort"
	"strings"
)

// The RPQ tower — RPQs, 2RPQs, ℓ-RPQs and dl-RPQs — is one idea used four
// times: a regular expression over a richer atom alphabet, compiled by the
// same position automaton. This file holds everything of such an
// expression that is not an atom: the nodes ε, concatenation, union, star
// and bounded repetition, their printer, the unrolling of repetitions, and
// Glushkov's construction. A language supplies only its atoms (DESIGN §23).

// Notation is how a language writes the nodes every regular expression
// has: the brackets that group a subexpression, and ε.
type Notation struct{ Open, Close, Epsilon string }

// Language is the constraint on a language's tag type L, the type argument
// of its expressions: the tag names the language, so that no node of one
// language fits in another's tree, and says how the language is written.
type Language interface{ Notation() Notation }

// Expr is a regular expression over the atoms of language L. Its nodes are
// Epsilon, Concat, Alternation, Star and Repeat of L, and the language's atom
// types, which join Expr[L] by having a Language method.
type Expr[L Language] interface {
	fmt.Stringer
	// Language returns the tag of the language the node belongs to.
	Language() L
}

// Epsilon is ε.
type Epsilon[L Language] struct{}

// Concat is R₁·R₂·…·Rₙ.
type Concat[L Language] struct{ Parts []Expr[L] }

// Alternation is the union R₁+R₂+…+Rₙ. (Languages alias it as Union;
// here that name is the union of two NFAs.)
type Alternation[L Language] struct{ Alts []Expr[L] }

// Star is R*.
type Star[L Language] struct{ Sub Expr[L] }

// Repeat is the bounded repetition R{Min,Max}; Max < 0 means unbounded.
// R? is R{0,1} and R⁺ is R{1,∞}.
type Repeat[L Language] struct {
	Sub Expr[L]
	Min int
	Max int // -1 for unbounded
}

func (Epsilon[L]) Language() L     { var l L; return l }
func (Concat[L]) Language() L      { var l L; return l }
func (Alternation[L]) Language() L { var l L; return l }
func (Star[L]) Language() L        { var l L; return l }
func (Repeat[L]) Language() L      { var l L; return l }

func (e Epsilon[L]) String() string { return e.Language().Notation().Epsilon }

func (c Concat[L]) String() string { return join(c.Parts, " ") }

// Children of a union render at concatenation level, so a concatenation
// under a union needs no brackets.
func (u Alternation[L]) String() string { return join(u.Alts, " | ") }

func (s Star[L]) String() string { return operand(s.Sub, 3) + "*" }

func (r Repeat[L]) String() string {
	sub := operand(r.Sub, 3)
	switch {
	case r.Min == 0 && r.Max == 1:
		return sub + "?"
	case r.Min == 1 && r.Max < 0:
		return sub + "+"
	case r.Max < 0:
		return fmt.Sprintf("%s{%d,}", sub, r.Min)
	case r.Min == r.Max:
		return fmt.Sprintf("%s{%d}", sub, r.Min)
	default:
		return fmt.Sprintf("%s{%d,%d}", sub, r.Min, r.Max)
	}
}

func join[L Language](es []Expr[L], sep string) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = operand(e, 2)
	}
	return strings.Join(parts, sep)
}

// operand renders e as the operand of an operator of the given precedence
// — union 1, concatenation 2, postfix 3 — grouping it when it binds looser.
// Atoms, ε and postfix nodes bind tightest.
func operand[L Language](e Expr[L], parent int) string {
	prec := 3
	switch e.(type) {
	case Concat[L]:
		prec = 2
	case Alternation[L]:
		prec = 1
	}
	s := e.String()
	if prec < parent {
		n := e.Language().Notation()
		return n.Open + s + n.Close
	}
	return s
}

// Seq returns the concatenation of parts: ε when there are none, the one
// part when there is one.
func Seq[L Language](parts ...Expr[L]) Expr[L] {
	switch len(parts) {
	case 0:
		return Epsilon[L]{}
	case 1:
		return parts[0]
	default:
		return Concat[L]{Parts: parts}
	}
}

// Alt returns the union of alts, the one alternative when there is one.
func Alt[L Language](alts ...Expr[L]) Expr[L] {
	switch len(alts) {
	case 0:
		panic("automata: Alt needs at least one alternative")
	case 1:
		return alts[0]
	default:
		return Alternation[L]{Alts: alts}
	}
}

// Unroll returns e in the core grammar, every repetition written out:
// R{n,m} is n copies of R and m−n copies of (ε | R), R{n,} is n copies and
// R*. The copies share one unrolled R.
func Unroll[L Language](e Expr[L]) Expr[L] {
	switch n := e.(type) {
	case Concat[L]:
		parts := make([]Expr[L], len(n.Parts))
		for i, p := range n.Parts {
			parts[i] = Unroll(p)
		}
		return Concat[L]{Parts: parts}
	case Alternation[L]:
		alts := make([]Expr[L], len(n.Alts))
		for i, a := range n.Alts {
			alts[i] = Unroll(a)
		}
		return Alternation[L]{Alts: alts}
	case Star[L]:
		return Star[L]{Sub: Unroll(n.Sub)}
	case Repeat[L]:
		return unroll(Repeat[L]{Sub: Unroll(n.Sub), Min: n.Min, Max: n.Max})
	default:
		return e
	}
}

// unroll writes out one repetition, leaving its operand as it is.
func unroll[L Language](r Repeat[L]) Expr[L] {
	var parts []Expr[L]
	for i := 0; i < r.Min; i++ {
		parts = append(parts, r.Sub)
	}
	switch {
	case r.Max < 0:
		parts = append(parts, Star[L]{Sub: r.Sub})
	case r.Max < r.Min:
		panic(fmt.Sprintf("automata: invalid repetition {%d,%d}", r.Min, r.Max))
	default:
		opt := Alternation[L]{Alts: []Expr[L]{Epsilon[L]{}, r.Sub}}
		for i := r.Min; i < r.Max; i++ {
			parts = append(parts, opt)
		}
	}
	return Seq(parts...)
}

// Names returns the sorted set of the strings f gives for e's atoms — the
// labels, or the variables, an expression mentions.
func Names[L Language](e Expr[L], f func(atom Expr[L]) []string) []string {
	set := map[string]struct{}{}
	atoms(e, func(a Expr[L]) {
		for _, s := range f(a) {
			set[s] = struct{}{}
		}
	})
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// atoms calls f on every atom of e, left to right.
func atoms[L Language](e Expr[L], f func(Expr[L])) {
	switch n := e.(type) {
	case Epsilon[L]:
	case Concat[L]:
		for _, p := range n.Parts {
			atoms(p, f)
		}
	case Alternation[L]:
		for _, a := range n.Alts {
			atoms(a, f)
		}
	case Star[L]:
		atoms(n.Sub, f)
	case Repeat[L]:
		atoms(n.Sub, f)
	default:
		f(e)
	}
}

// Map rebuilds e in language M, every atom replaced by f's image of it.
func Map[L, M Language](e Expr[L], f func(Expr[L]) Expr[M]) Expr[M] {
	switch n := e.(type) {
	case Epsilon[L]:
		return Epsilon[M]{}
	case Concat[L]:
		parts := make([]Expr[M], len(n.Parts))
		for i, p := range n.Parts {
			parts[i] = Map(p, f)
		}
		return Seq(parts...)
	case Alternation[L]:
		alts := make([]Expr[M], len(n.Alts))
		for i, a := range n.Alts {
			alts[i] = Map(a, f)
		}
		return Alt(alts...)
	case Star[L]:
		return Star[M]{Sub: Map(n.Sub, f)}
	case Repeat[L]:
		return Repeat[M]{Sub: Map(n.Sub, f), Min: n.Min, Max: n.Max}
	default:
		return f(e)
	}
}

// Automaton is a position automaton whose transitions are of type T: NFA,
// and each language's annotated automaton, are defined over it.
type Automaton[T any] struct {
	NumStates int
	Start     int
	Accept    []bool
	Trans     [][]T // indexed by source state
}

// Glushkov translates e into its position automaton — the "routine
// methods" of Section 6.2 that give an equivalent NFA without
// ε-transitions. Repetitions are unrolled as Unroll writes them. State 0
// is initial and state i+1 stands for the i-th atom occurrence, counted
// left to right; every transition into state i+1 is at(a, i+1), where a is
// that occurrence, computed once. State 0's transitions go to the first
// positions, and state i+1's to the positions that may follow i, each in
// the order the construction meets them.
func Glushkov[L Language, T any](e Expr[L], at func(atom Expr[L], to int) T) *Automaton[T] {
	g := &glushkov[L, T]{at: at}
	info := g.analyze(e)
	n := len(g.pos) + 1
	a := &Automaton[T]{NumStates: n, Accept: make([]bool, n), Trans: make([][]T, n)}
	a.Accept[0] = info.nullable
	for _, p := range info.first {
		a.Trans[0] = append(a.Trans[0], g.pos[p])
	}
	for p, follows := range g.follow {
		for _, q := range follows {
			a.Trans[p+1] = append(a.Trans[p+1], g.pos[q])
		}
	}
	for _, p := range info.last {
		a.Accept[p+1] = true
	}
	return a
}

// glushkov accumulates the positions of an expression and their follow
// sets.
type glushkov[L Language, T any] struct {
	at     func(Expr[L], int) T
	pos    []T     // position -> every transition into it
	follow [][]int // position -> positions that may follow it
}

type ginfo struct {
	nullable    bool
	first, last []int
}

func (g *glushkov[L, T]) analyze(e Expr[L]) ginfo {
	switch n := e.(type) {
	case Epsilon[L]:
		return ginfo{nullable: true}
	case Concat[L]:
		if len(n.Parts) == 0 {
			return ginfo{nullable: true}
		}
		acc := g.analyze(n.Parts[0])
		for _, part := range n.Parts[1:] {
			next := g.analyze(part)
			for _, l := range acc.last {
				g.follow[l] = append(g.follow[l], next.first...)
			}
			merged := ginfo{nullable: acc.nullable && next.nullable}
			merged.first = append(merged.first, acc.first...)
			if acc.nullable {
				merged.first = append(merged.first, next.first...)
			}
			merged.last = append(merged.last, next.last...)
			if next.nullable {
				merged.last = append(merged.last, acc.last...)
			}
			acc = merged
		}
		return acc
	case Alternation[L]:
		var out ginfo
		for _, alt := range n.Alts {
			ai := g.analyze(alt)
			out.nullable = out.nullable || ai.nullable
			out.first = append(out.first, ai.first...)
			out.last = append(out.last, ai.last...)
		}
		return out
	case Star[L]:
		si := g.analyze(n.Sub)
		for _, l := range si.last {
			g.follow[l] = append(g.follow[l], si.first...)
		}
		return ginfo{nullable: true, first: si.first, last: si.last}
	case Repeat[L]:
		return g.analyze(unroll(n))
	default:
		p := len(g.pos)
		g.pos = append(g.pos, g.at(e, p+1))
		g.follow = append(g.follow, nil)
		return ginfo{first: []int{p}, last: []int{p}}
	}
}
