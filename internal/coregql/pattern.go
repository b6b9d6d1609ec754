// Package coregql implements CoreGQL (Section 4.1 of the paper): the
// distilled-from-practice abstraction of GQL consisting of (1) a pattern
// calculus, (2) pattern outputs as first-normal-form relations, and (3)
// relational algebra over those relations (package relalg).
//
// Patterns follow the grammar of Section 4.1.1:
//
//	π := (x) | -x-> | π₁ π₂ | π₁ + π₂ | π^{n..m} | π⟨θ⟩
//
// with conditions θ over property comparisons, label tests, and Boolean
// connectives. The semantics is exactly Figure 4: patterns produce pairs of
// a (node-to-node) path and a binding of free variables to graph elements;
// repetition erases free variables (FV(π^{n..m}) = ∅), which is the
// normal-form discipline that keeps outputs flat — and the root cause of
// the Example 1 phenomenon that π^{2..2} ≢ ππ when π contains variables.
//
// A pattern is a regular expression over node and edge atoms: concatenation,
// union and repetition are the shared nodes of package automata, and π⟨θ⟩
// is the one node the GQL family adds (DESIGN §23). The Figure 4 match
// enumerator here is the only one: GQL's group-variable semantics (package
// gql) is the same enumerator run with another binding algebra.
package coregql

import (
	"fmt"
	"sort"
	"strings"

	"graphquery/internal/automata"
)

// lang is the CoreGQL tag type: patterns are written in the paper's
// notation, with + for union.
type lang struct{}

func (lang) Notation() automata.Notation {
	return automata.Notation{Open: "(", Close: ")", Epsilon: "()", Seq: " ", Or: " + "}
}

// Pattern is a CoreGQL pattern π: its concatenations, unions and
// repetitions are automata.Concat, automata.Alternation, automata.Star and
// automata.Repeat of this language, its atoms NodePat and EdgePat.
type Pattern = automata.Expr[lang]

// NodePat is (x); the variable is optional ("" for anonymous).
type NodePat struct{ Var string }

// EdgePat is -x->; the variable is optional.
type EdgePat struct{ Var string }

// CondPat is π⟨θ⟩.
type CondPat struct {
	Sub  Pattern
	Cond Condition
}

func (NodePat) Language() lang { return lang{} }
func (EdgePat) Language() lang { return lang{} }
func (CondPat) Language() lang { return lang{} }

func (p NodePat) Elem() (bool, string, string) { return false, "", p.Var }
func (p EdgePat) Elem() (bool, string, string) { return true, "", p.Var }

func (p CondPat) Where() (Pattern, Condition) { return p.Sub, p.Cond }

func (p NodePat) String() string { return "(" + p.Var + ")" }
func (p EdgePat) String() string {
	if p.Var == "" {
		return "-->"
	}
	return "-" + p.Var + "->"
}
func (p CondPat) String() string { return "(" + p.Sub.String() + ")<" + p.Cond.String() + ">" }

// Node returns the node pattern (x).
func Node(x string) Pattern { return NodePat{Var: x} }

// AnonNode returns ().
func AnonNode() Pattern { return NodePat{} }

// Edge returns -x->.
func Edge(x string) Pattern { return EdgePat{Var: x} }

// AnonEdge returns -->.
func AnonEdge() Pattern { return EdgePat{} }

// Concat chains patterns left to right.
func Concat(ps ...Pattern) Pattern { return automata.Seq(ps...) }

// Union returns π₁ + π₂.
func Union(a, b Pattern) Pattern { return automata.Alt(a, b) }

// Repeat returns π^{min..max}; max < 0 means ∞.
func Repeat(p Pattern, min, max int) Pattern {
	return automata.Repeat[lang]{Sub: p, Min: min, Max: max}
}

// Star returns π^{0..∞}.
func Star(p Pattern) Pattern { return automata.Star[lang]{Sub: p} }

// Filter returns π⟨θ⟩.
func Filter(p Pattern, c Condition) Pattern { return CondPat{Sub: p, Cond: c} }

// FreeVars computes FV(π) per Section 4.1.1: repetition erases variables,
// union requires every branch to agree (checked by Validate).
func FreeVars(p Pattern) []string {
	set := map[string]struct{}{}
	collectFV(p, set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func collectFV(p Pattern, set map[string]struct{}) {
	switch n := p.(type) {
	case NodePat:
		if n.Var != "" {
			set[n.Var] = struct{}{}
		}
	case EdgePat:
		if n.Var != "" {
			set[n.Var] = struct{}{}
		}
	case automata.Concat[lang]:
		for _, part := range n.Parts {
			collectFV(part, set)
		}
	case automata.Alternation[lang]:
		collectFV(n.Alts[0], set) // FV(π₁+π₂) = FV(π₁) (= FV(π₂))
	case CondPat:
		collectFV(n.Sub, set)
	}
	// FV(π^{n..m}) = ∅: repetition erases variables.
}

// Validate checks the well-formedness constraints: in every union all
// branches have identical free variables, repetition bounds are sane, and
// conditions only mention variables free in their subpattern.
func Validate(p Pattern) error {
	switch n := p.(type) {
	case NodePat, EdgePat:
		return nil
	case automata.Concat[lang]:
		for _, part := range n.Parts {
			if err := Validate(part); err != nil {
				return err
			}
		}
		return nil
	case automata.Alternation[lang]:
		for i, alt := range n.Alts {
			if err := Validate(alt); err != nil {
				return err
			}
			if i == 0 {
				continue
			}
			l, r := FreeVars(n.Alts[0]), FreeVars(alt)
			if strings.Join(l, ",") != strings.Join(r, ",") {
				return fmt.Errorf("coregql: union branches have different free variables %v vs %v (nulls are not allowed)", l, r)
			}
		}
		return nil
	case automata.Star[lang]:
		return Validate(n.Sub)
	case automata.Repeat[lang]:
		if n.Min < 0 || (n.Max >= 0 && n.Max < n.Min) {
			return fmt.Errorf("coregql: invalid repetition bounds {%d..%d}", n.Min, n.Max)
		}
		return Validate(n.Sub)
	case CondPat:
		if err := Validate(n.Sub); err != nil {
			return err
		}
		fv := map[string]struct{}{}
		for _, v := range FreeVars(n.Sub) {
			fv[v] = struct{}{}
		}
		for _, v := range condVars(n.Cond) {
			if _, ok := fv[v]; !ok {
				return fmt.Errorf("coregql: condition mentions %q, which is not free in the subpattern", v)
			}
		}
		return nil
	default:
		return fmt.Errorf("coregql: unknown pattern %T", p)
	}
}
