// Package dlrpq implements RPQs with data tests and list variables
// (dl-RPQs, Section 3.2.1) — the paper's primary formalism. Expressions are
// regular expressions over node atoms (a), (a^z), (et) and edge atoms [a],
// [a^z], [et], where et ranges over the ETest grammar
//
//	ETest := x := pname | pname op c | pname op x
//
// with op ∈ {=, ≠, <, >, ≤, ≥}. Nodes and edges are treated symmetrically:
// consecutive atoms of the same kind match the *same* object (the
// boundary-collapse rule of path concatenation), which is what makes
// "increasing property values on edges" as easy to express as on nodes
// (Example 21) — the capability GQL lacks (Proposition 23, Section 5.2).
//
// Evaluation (eval.go) follows the register-automaton approach referenced
// in Section 6.4 "Data Filters": configurations pair a position in the
// graph with an automaton state and a value assignment ν drawn lazily from
// the active domain.
package dlrpq

import (
	"strings"

	"graphquery/internal/automata"
	"graphquery/internal/graph"
)

// Test is one element test (ETest). Exactly one of the three forms holds:
//
//	Assign:   AssignVar := Prop        (x := pname)
//	constant: Prop Op Const            (pname op c)
//	variable: Prop Op CmpVar           (pname op x)
type Test struct {
	Assign    bool
	AssignVar string

	Prop string
	Op   graph.CompareOp

	UseConst bool
	Const    graph.Value
	CmpVar   string
}

// AssignTest returns the test x := pname.
func AssignTest(x, pname string) Test { return Test{Assign: true, AssignVar: x, Prop: pname} }

// ConstTest returns the test pname op c.
func ConstTest(pname string, op graph.CompareOp, c graph.Value) Test {
	return Test{Prop: pname, Op: op, UseConst: true, Const: c}
}

// VarTest returns the test pname op x.
func VarTest(pname string, op graph.CompareOp, x string) Test {
	return Test{Prop: pname, Op: op, CmpVar: x}
}

func (t Test) String() string {
	if t.Assign {
		return t.AssignVar + " := " + t.Prop
	}
	if t.UseConst {
		c := t.Const.String()
		if t.Const.Kind() == graph.KindString {
			c = "'" + c + "'"
		}
		return t.Prop + " " + t.Op.String() + " " + c
	}
	return t.Prop + " " + t.Op.String() + " " + t.CmpVar
}

// Atom matches a single object: a node when Edge is false — rendered (…) —
// or an edge when Edge is true — rendered […]. The content is either a
// label pattern (Name/Wild/Except, with optional list variable Var) or an
// element test.
type Atom struct {
	Edge bool

	// Label-pattern form:
	Name   string
	Wild   bool
	Except []string
	Var    string

	// Test form (mutually exclusive with the label form):
	Test *Test
}

// lang is the dl-RPQ tag type: round and square brackets are taken by
// atoms, so groups are braces, and ε is written "eps".
type lang struct{}

func (lang) Notation() automata.Notation {
	return automata.Notation{Open: "{", Close: "}", Epsilon: "eps", Seq: " ", Or: " | "}
}

// Expr is a node of the dl-RPQ AST. Everything but the atom is the
// regular-expression core the RPQ tower shares (package automata).
type Expr = automata.Expr[lang]

type (
	// Epsilon is ε (matches without consuming an object).
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

func (Atom) Language() lang { return lang{} }

func (a Atom) String() string {
	var inner string
	switch {
	case a.Test != nil:
		inner = a.Test.String()
	case a.Wild && len(a.Except) == 0 && a.Var == "":
		inner = ""
	case a.Wild && len(a.Except) == 0:
		inner = "_"
	case a.Wild:
		parts := make([]string, len(a.Except))
		copy(parts, a.Except)
		inner = "!{" + strings.Join(parts, ",") + "}"
	default:
		inner = a.Name
	}
	if a.Var != "" && a.Test == nil {
		inner += "^" + a.Var
	}
	if a.Edge {
		return "[" + inner + "]"
	}
	return "(" + inner + ")"
}

// Vars returns the sorted list variables of e (Var(R)).
func Vars(e Expr) []string {
	return automata.Names(e, func(e Expr) []string {
		if a := e.(Atom); a.Test == nil && a.Var != "" {
			return []string{a.Var}
		}
		return nil
	})
}

// DataVars returns the sorted data variables of e (the x's of ETests).
func DataVars(e Expr) []string {
	return automata.Names(e, func(e Expr) []string {
		switch t := e.(Atom).Test; {
		case t == nil:
			return nil
		case t.Assign:
			return []string{t.AssignVar}
		case !t.UseConst:
			return []string{t.CmpVar}
		}
		return nil
	})
}
