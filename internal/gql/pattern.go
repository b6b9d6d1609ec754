// Package gql models the practice-side pattern semantics of GQL that the
// paper scrutinizes: group variables whose role flips under iteration
// (Examples 1 and 2), partial bindings under disjunction (Section 4.2),
// path variables with EXCEPT over path sets, Cypher-style list functions
// with reduce, and the proposed ⟨∀π′ ⇒ θ⟩ conditions on matched paths
// (Section 5.2). It is deliberately faithful to the behaviors the paper
// criticizes, serving as the experimental counterpart to the
// automata-compatible designs in packages lrpq and dlrpq.
package gql

import (
	"errors"
	"fmt"
	"strings"

	"graphquery/internal/automata"
	"graphquery/internal/coregql"
	"graphquery/internal/graph"
)

// lang is the GQL tag type: patterns are written in GQL's ASCII art, whose
// elements need no separator, with | for union.
type lang struct{}

func (lang) Notation() automata.Notation {
	return automata.Notation{Open: "(", Close: ")", Epsilon: "()", Seq: "", Or: " | "}
}

// Pattern is a GQL-style pattern: its concatenations, unions and
// repetitions are automata.Concat, automata.Alternation, automata.Star and
// automata.Repeat of this language, its atoms NodeP and EdgeP. Union
// branches may bind different variables (GQL's partial bindings / nulls,
// Section 4.2), and iteration turns every variable of its body into a group
// variable that collects a list.
type Pattern = automata.Expr[lang]

// NodeP is (x:L); Var and Label are both optional.
type NodeP struct {
	Var   string
	Label string
}

// EdgeP is -[x:L]->; Var and Label are both optional.
type EdgeP struct {
	Var   string
	Label string
}

// CondP is π WHERE θ; conditions reuse the CoreGQL condition language and
// apply to singleton bindings of the subpattern.
type CondP struct {
	Sub  Pattern
	Cond coregql.Condition
}

func (NodeP) Language() lang { return lang{} }
func (EdgeP) Language() lang { return lang{} }
func (CondP) Language() lang { return lang{} }

func (p NodeP) Elem() (bool, string, string) { return false, p.Label, p.Var }
func (p EdgeP) Elem() (bool, string, string) { return true, p.Label, p.Var }

func (p CondP) Where() (Pattern, coregql.Condition) { return p.Sub, p.Cond }

func (p NodeP) String() string {
	s := p.Var
	if p.Label != "" {
		s += ":" + p.Label
	}
	return "(" + s + ")"
}

func (p EdgeP) String() string {
	s := p.Var
	if p.Label != "" {
		s += ":" + p.Label
	}
	if s == "" {
		return "-->"
	}
	return "-[" + s + "]->"
}

func (p CondP) String() string { return "(" + p.Sub.String() + " WHERE " + p.Cond.String() + ")" }

// Node returns (x).
func Node(x string) Pattern { return NodeP{Var: x} }

// NodeL returns (x:L).
func NodeL(x, label string) Pattern { return NodeP{Var: x, Label: label} }

// AnonNode returns ().
func AnonNode() Pattern { return NodeP{} }

// Edge returns -[x]->.
func Edge(x string) Pattern { return EdgeP{Var: x} }

// EdgeL returns -[x:L]->.
func EdgeL(x, label string) Pattern { return EdgeP{Var: x, Label: label} }

// AnonEdgeL returns -[:L]->.
func AnonEdgeL(label string) Pattern { return EdgeP{Label: label} }

// AnonEdge returns -->.
func AnonEdge() Pattern { return EdgeP{} }

// Concat chains patterns.
func Concat(ps ...Pattern) Pattern { return automata.Seq(ps...) }

// Union returns π₁ | π₂.
func Union(a, b Pattern) Pattern { return automata.Alt(a, b) }

// Repeat returns π{min,max}; max < 0 means unbounded.
func Repeat(p Pattern, min, max int) Pattern {
	return automata.Repeat[lang]{Sub: p, Min: min, Max: max}
}

// Star returns π{0,∞}.
func Star(p Pattern) Pattern { return automata.Star[lang]{Sub: p} }

// Where returns π WHERE θ.
func Where(p Pattern, c coregql.Condition) Pattern { return CondP{Sub: p, Cond: c} }

// BindVal is the value of a variable in a match: a single element or — for
// group variables — a list of elements.
type BindVal struct {
	IsList bool
	One    graph.Object
	List   []graph.Object
}

func (v BindVal) key() string {
	if !v.IsList {
		return coregql.ObjectKey(v.One)
	}
	var b strings.Builder
	b.WriteByte('[')
	for _, o := range v.List {
		b.WriteString(coregql.ObjectKey(o))
		b.WriteByte(',')
	}
	b.WriteByte(']')
	return b.String()
}

// Format renders the value with external IDs.
func (v BindVal) Format(g *graph.Graph) string {
	if !v.IsList {
		return g.ObjectID(v.One)
	}
	parts := make([]string, len(v.List))
	for i, o := range v.List {
		parts[i] = g.ObjectID(o)
	}
	return "list(" + strings.Join(parts, ", ") + ")"
}

// Match is one result of pattern matching: a node-to-node path and a
// binding. Variables absent from the map are "null" (GQL partial bindings).
type Match = coregql.MatchOf[map[string]BindVal]

// ErrUnbounded mirrors the other evaluators.
var ErrUnbounded = errors.New("gql: unbounded repetition requires Options.MaxLen")

// ErrMixedBinding reports a variable used as both singleton and group in a
// joinable position — ill-formed in GQL's type discipline.
var ErrMixedBinding = errors.New("gql: variable bound as both element and list")

// ErrEmptyIteration reports an unbounded repetition whose body matches a
// zero-length path that binds a variable: every such iteration lengthens a
// group list but not the path, so no MaxLen bounds the match set.
var ErrEmptyIteration = errors.New("gql: an unbounded repetition's body matches a zero-length path that binds a variable, so its group lists grow without end")

// Options bound evaluation: MaxLen bounds the length of matched paths, and
// Meter stops and charges evaluation.
type Options = coregql.Options

// EvalPattern computes the match set of π on g under GQL group-variable
// semantics (set semantics), ordered by path length then key: CoreGQL's
// Figure 4 enumerator run with GQL's binding algebra.
func EvalPattern(g *graph.Graph, p Pattern, opts Options) ([]Match, error) {
	if opts.MaxLen <= 0 && coregql.Unbounded(p) {
		return nil, ErrUnbounded
	}
	if infinite, _, _ := emptyIterations(p); infinite {
		return nil, ErrEmptyIteration
	}
	return coregql.Enumerate(g, p, grouping{}, opts)
}

// emptyIterations reports whether p repeats without bound a body that
// matches a zero-length path binding a variable and, for the recursion,
// whether p matches a zero-length path at all and whether such a match may
// bind a variable.
func emptyIterations(p Pattern) (infinite, empty, binds bool) {
	switch n := p.(type) {
	case NodeP:
		return false, true, n.Var != ""
	case automata.Concat[lang]:
		empty = true
		for _, part := range n.Parts {
			inf, e, b := emptyIterations(part)
			infinite, empty, binds = infinite || inf, empty && e, binds || b
		}
		return infinite, empty, empty && binds
	case automata.Alternation[lang]:
		for _, alt := range n.Alts {
			inf, e, b := emptyIterations(alt)
			infinite, empty, binds = infinite || inf, empty || e, binds || b
		}
		return infinite, empty, binds
	case automata.Star[lang]:
		inf, _, b := emptyIterations(n.Sub)
		return inf || b, true, b
	case automata.Repeat[lang]:
		inf, e, b := emptyIterations(n.Sub)
		return inf || n.Max < 0 && b, n.Min == 0 || e, b && n.Max != 0
	case CondP:
		return emptyIterations(n.Sub)
	}
	return false, false, false
}

// grouping is GQL's binding algebra: a variable is bound to one element,
// or — once a repetition has iterated it — to the list of the elements its
// iterations bound. Singletons join on equality (GQL's repeated-variable
// join), lists concatenate, and a variable bound both ways is an error.
type grouping struct{}

func (grouping) Bind(v string, o graph.Object) map[string]BindVal {
	b := map[string]BindVal{}
	if v != "" {
		b[v] = BindVal{One: o}
	}
	return b
}

func (grouping) Join(a, b map[string]BindVal) (map[string]BindVal, bool, error) {
	out := make(map[string]BindVal, len(a)+len(b))
	for v, val := range a {
		out[v] = val
	}
	for v, val := range b {
		prev, shared := out[v]
		if !shared {
			out[v] = val
			continue
		}
		switch {
		case !prev.IsList && !val.IsList:
			if prev.One != val.One {
				return nil, false, nil // join fails
			}
		case prev.IsList && val.IsList:
			merged := make([]graph.Object, 0, len(prev.List)+len(val.List))
			merged = append(merged, prev.List...)
			merged = append(merged, val.List...)
			out[v] = BindVal{IsList: true, List: merged}
		default:
			return nil, false, fmt.Errorf("%w: %q", ErrMixedBinding, v)
		}
	}
	return out, true, nil
}

// Iterate promotes every variable an iteration bound to a one-iteration
// list; lists of nested iterations stay as they are.
func (grouping) Iterate(b map[string]BindVal) map[string]BindVal {
	out := make(map[string]BindVal, len(b))
	for v, val := range b {
		if val.IsList {
			out[v] = val
		} else {
			out[v] = BindVal{IsList: true, List: []graph.Object{val.One}}
		}
	}
	return out
}

// Holds adapts a GQL binding (which may contain lists) to the CoreGQL
// condition evaluator; conditions touching list-bound or unbound
// variables are false.
func (grouping) Holds(g *graph.Graph, c coregql.Condition, b map[string]BindVal) bool {
	flat := make(map[string]graph.Object, len(b))
	for v, val := range b {
		if !val.IsList {
			flat[v] = val.One
		}
	}
	return c.Holds(g, flat)
}

func (grouping) Key(b map[string]BindVal) string { return coregql.KeyOf(b, BindVal.key) }
