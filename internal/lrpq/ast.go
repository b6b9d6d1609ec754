// Package lrpq implements RPQs with list variables (ℓ-RPQs, Section 3.1.4):
// regular expressions over Labels ∪ {a^z}, where an annotated atom a^z
// matches an a-labeled edge and appends that edge to the list bound to
// variable z. Results are path bindings (p, µ).
//
// Following the paper's design principle of compatibility with automata,
// expressions compile to variable-annotated NFAs (the document-spanner
// construction), which makes ⟦R{2}⟧ = ⟦R·R⟧ hold by definition — exactly
// the property that fails for GQL group variables (Example 1).
package lrpq

import (
	"fmt"
	"sort"
	"strings"

	"graphquery/internal/rpq"
)

// Expr is a node of the ℓ-RPQ AST.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// Epsilon is ε.
type Epsilon struct{}

// Atom matches one edge. If Wild is false it requires label Name; if Wild is
// true it matches any label not in Except (the !S wildcard; empty Except is
// "_"). If Var is non-empty, the matched edge is appended to Var's list.
type Atom struct {
	Name   string
	Wild   bool
	Except []string
	Var    string
}

// Concat is R₁·…·Rₙ.
type Concat struct{ Parts []Expr }

// Union is R₁+…+Rₙ.
type Union struct{ Alts []Expr }

// Star is R*.
type Star struct{ Sub Expr }

// Repeat is R{Min,Max}; Max < 0 means unbounded.
type Repeat struct {
	Sub Expr
	Min int
	Max int
}

func (Epsilon) isExpr() {}
func (Atom) isExpr()    {}
func (Concat) isExpr()  {}
func (Union) isExpr()   {}
func (Star) isExpr()    {}
func (Repeat) isExpr()  {}

func (Epsilon) String() string { return "()" }

func (a Atom) String() string {
	var base string
	switch {
	case !a.Wild:
		base = rpq.Label{Name: a.Name}.String()
	case len(a.Except) == 0:
		base = "_"
	default:
		parts := make([]string, len(a.Except))
		for i, s := range a.Except {
			parts[i] = rpq.Label{Name: s}.String()
		}
		base = "!{" + strings.Join(parts, ",") + "}"
	}
	if a.Var != "" {
		// Quoted like a label when it is not a plain identifier: '^' reads
		// the same token a label is.
		return base + "^" + rpq.Label{Name: a.Var}.String()
	}
	return base
}

func (c Concat) String() string {
	parts := make([]string, len(c.Parts))
	for i, p := range c.Parts {
		parts[i] = childString(p, 2)
	}
	return strings.Join(parts, " ")
}

func (u Union) String() string {
	parts := make([]string, len(u.Alts))
	for i, a := range u.Alts {
		parts[i] = childString(a, 2)
	}
	return strings.Join(parts, " | ")
}

func (s Star) String() string { return childString(s.Sub, 3) + "*" }

func (r Repeat) String() string {
	sub := childString(r.Sub, 3)
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

// childString parenthesizes children whose operator precedence is lower
// than the parent context (union = 1, concatenation = 2, postfix/atoms = 3).
func childString(e Expr, parent int) string {
	var prec int
	switch e.(type) {
	case Epsilon, Atom, Star, Repeat:
		prec = 3
	case Concat:
		prec = 2
	case Union:
		prec = 1
	}
	s := e.String()
	if prec < parent {
		return "(" + s + ")"
	}
	return s
}

// Constructors.

// Eps returns ε.
func Eps() Expr { return Epsilon{} }

// L returns the plain atom for label a.
func L(a string) Expr { return Atom{Name: a} }

// Seq returns the concatenation of parts.
func Seq(parts ...Expr) Expr {
	switch len(parts) {
	case 0:
		return Epsilon{}
	case 1:
		return parts[0]
	default:
		return Concat{Parts: parts}
	}
}

// Alt returns the disjunction of alternatives.
func Alt(alts ...Expr) Expr {
	switch len(alts) {
	case 0:
		panic("lrpq: Alt needs at least one alternative")
	case 1:
		return alts[0]
	default:
		return Union{Alts: alts}
	}
}

// Kleene returns R*.
func Kleene(e Expr) Expr { return Star{Sub: e} }

// PlusOf returns R⁺.
func PlusOf(e Expr) Expr { return Repeat{Sub: e, Min: 1, Max: -1} }

// Opt returns R?.
func Opt(e Expr) Expr { return Repeat{Sub: e, Min: 0, Max: 1} }

// Times returns R{n}.
func Times(e Expr, n int) Expr { return Repeat{Sub: e, Min: n, Max: n} }

// Vars returns Var(R): the sorted set of list variables occurring in e.
func Vars(e Expr) []string {
	set := map[string]struct{}{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch n := e.(type) {
		case Atom:
			if n.Var != "" {
				set[n.Var] = struct{}{}
			}
		case Concat:
			for _, p := range n.Parts {
				walk(p)
			}
		case Union:
			for _, a := range n.Alts {
				walk(a)
			}
		case Star:
			walk(n.Sub)
		case Repeat:
			walk(n.Sub)
		}
	}
	walk(e)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Desugar expands Repeat into the core grammar.
func Desugar(e Expr) Expr {
	switch n := e.(type) {
	case Epsilon, Atom:
		return e
	case Concat:
		parts := make([]Expr, len(n.Parts))
		for i, p := range n.Parts {
			parts[i] = Desugar(p)
		}
		return Concat{Parts: parts}
	case Union:
		alts := make([]Expr, len(n.Alts))
		for i, a := range n.Alts {
			alts[i] = Desugar(a)
		}
		return Union{Alts: alts}
	case Star:
		return Star{Sub: Desugar(n.Sub)}
	case Repeat:
		sub := Desugar(n.Sub)
		var parts []Expr
		for i := 0; i < n.Min; i++ {
			parts = append(parts, sub)
		}
		switch {
		case n.Max < 0:
			parts = append(parts, Star{Sub: sub})
		case n.Max < n.Min:
			panic(fmt.Sprintf("lrpq: invalid repetition {%d,%d}", n.Min, n.Max))
		default:
			opt := Union{Alts: []Expr{Epsilon{}, sub}}
			for i := n.Min; i < n.Max; i++ {
				parts = append(parts, opt)
			}
		}
		return Seq(parts...)
	default:
		panic(fmt.Sprintf("lrpq: unknown expression type %T", e))
	}
}

// Erase removes all variable annotations, yielding the underlying plain RPQ.
func Erase(e Expr) rpq.Expr {
	switch n := e.(type) {
	case Epsilon:
		return rpq.Eps()
	case Atom:
		if n.Wild {
			return rpq.Not(n.Except...)
		}
		return rpq.L(n.Name)
	case Concat:
		parts := make([]rpq.Expr, len(n.Parts))
		for i, p := range n.Parts {
			parts[i] = Erase(p)
		}
		return rpq.Seq(parts...)
	case Union:
		alts := make([]rpq.Expr, len(n.Alts))
		for i, a := range n.Alts {
			alts[i] = Erase(a)
		}
		return rpq.Alt(alts...)
	case Star:
		return rpq.Kleene(Erase(n.Sub))
	case Repeat:
		return rpq.Between(Erase(n.Sub), n.Min, n.Max)
	default:
		panic(fmt.Sprintf("lrpq: unknown expression type %T", e))
	}
}

// FromRPQ lifts a plain RPQ into an ℓ-RPQ with no variables.
func FromRPQ(e rpq.Expr) Expr {
	switch n := e.(type) {
	case rpq.Epsilon:
		return Eps()
	case rpq.Label:
		return L(n.Name)
	case rpq.NotIn:
		return Atom{Wild: true, Except: append([]string(nil), n.Set...)}
	case rpq.Concat:
		parts := make([]Expr, len(n.Parts))
		for i, p := range n.Parts {
			parts[i] = FromRPQ(p)
		}
		return Seq(parts...)
	case rpq.Union:
		alts := make([]Expr, len(n.Alts))
		for i, a := range n.Alts {
			alts[i] = FromRPQ(a)
		}
		return Alt(alts...)
	case rpq.Star:
		return Kleene(FromRPQ(n.Sub))
	case rpq.Repeat:
		return Repeat{Sub: FromRPQ(n.Sub), Min: n.Min, Max: n.Max}
	default:
		panic(fmt.Sprintf("lrpq: unknown rpq expression type %T", e))
	}
}
