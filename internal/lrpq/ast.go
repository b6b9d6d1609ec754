// Package lrpq implements RPQs with list variables (ℓ-RPQs, Section 3.1.4):
// regular expressions over Labels ∪ {a^z}, where an annotated atom a^z
// matches an a-labeled edge and appends that edge to the list bound to
// variable z. Results are path bindings (p, µ).
//
// Following the paper's design principle of compatibility with automata,
// expressions compile to variable-annotated NFAs (the document-spanner
// construction), which makes ⟦R{2}⟧ = ⟦R·R⟧ hold by definition — exactly
// the property that fails for GQL group variables (Example 1). Everything
// but the atom is the regular-expression core the RPQ tower shares: the
// nodes and the construction of package automata, the parser of package
// rpq.
package lrpq

import (
	"graphquery/internal/automata"
	"graphquery/internal/rpq"
)

// lang is the ℓ-RPQ tag type; ℓ-RPQs are written like RPQs.
type lang struct{}

func (lang) Notation() automata.Notation {
	return automata.Notation{Open: "(", Close: ")", Epsilon: "()"}
}

// Expr is a node of the ℓ-RPQ AST.
type Expr = automata.Expr[lang]

type (
	// Epsilon is ε.
	Epsilon = automata.Epsilon[lang]
	// Concat is R₁·…·Rₙ.
	Concat = automata.Concat[lang]
	// Union is R₁+…+Rₙ.
	Union = automata.Alternation[lang]
	// Star is R*.
	Star = automata.Star[lang]
	// Repeat is R{Min,Max}; Max < 0 means unbounded.
	Repeat = automata.Repeat[lang]
)

// Atom matches one edge. If Wild is false it requires label Name; if Wild is
// true it matches any label not in Except (the !S wildcard; empty Except is
// "_"). If Var is non-empty, the matched edge is appended to Var's list.
type Atom struct {
	Name   string
	Wild   bool
	Except []string
	Var    string
}

func (Atom) Language() lang { return lang{} }

func (a Atom) String() string {
	return syntax.Format(rpq.Base{Name: a.Name, Wild: a.Wild, Except: a.Except, Suffix: a.Var})
}

// syntax reads an ℓ-RPQ: the RPQ syntax with an annotation ^z that may
// follow a label, '_', or a '!{…}' wildcard.
var syntax = rpq.Syntax[lang]{Name: "lrpq", Suffix: '^', Atom: func(a rpq.Base) Expr {
	return Atom{Name: a.Name, Wild: a.Wild, Except: a.Except, Var: a.Suffix}
}}

// Parse parses the textual ℓ-RPQ syntax, which extends the RPQ syntax of
// package rpq with variable annotations on atoms:
//
//	(Transfer^z)* isBlocked
//	(a a^z | a^z a)*
//	_^z  !{a,b}^w
func Parse(input string) (Expr, error) { return syntax.Parse(input) }

// MustParse parses or panics.
func MustParse(input string) Expr {
	e, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return e
}

// L returns the plain atom for label a.
func L(a string) Expr { return Atom{Name: a} }

// Vars returns Var(R): the sorted set of list variables occurring in e.
func Vars(e Expr) []string {
	return automata.Names(e, func(a Expr) []string {
		if v := a.(Atom).Var; v != "" {
			return []string{v}
		}
		return nil
	})
}

// Erase removes all variable annotations, yielding the underlying plain RPQ.
func Erase(e Expr) rpq.Expr {
	return automata.Map(e, func(e Expr) rpq.Expr {
		a := e.(Atom)
		if a.Wild {
			return rpq.Not(a.Except...)
		}
		return rpq.L(a.Name)
	})
}

// FromRPQ lifts a plain RPQ into an ℓ-RPQ with no variables.
func FromRPQ(e rpq.Expr) Expr {
	return automata.Map(e, func(e rpq.Expr) Expr {
		if w, ok := e.(rpq.NotIn); ok {
			return Atom{Wild: true, Except: append([]string(nil), w.Set...)}
		}
		return L(e.(rpq.Label).Name)
	})
}
