// Package rpq implements regular path queries (Section 3.1.1): a regular
// expression AST over edge labels with the !S wildcards of Remark 11, a
// parser for a textual syntax, algebraic simplification, and the Glushkov
// translation to ε-free NFAs that underpins the product-construction
// evaluation of Section 6.2.
package rpq

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Expr is a node of the RPQ regular-expression AST.
//
// The core grammar (Section 3.1.1) is ε, labels, concatenation, disjunction,
// and Kleene star; R? and R⁺ and bounded repetition R{n,m} are provided as
// syntax and desugared before compilation. Wildcards !S (Remark 11) are base
// expressions matching any label outside the finite set S; the anywhere
// wildcard "_" is !∅.
type Expr interface {
	fmt.Stringer
	isExpr()
	// precedence for parenthesization when rendering
	prec() int
}

// Epsilon is the ε base case.
type Epsilon struct{}

// Label matches exactly one edge with the given label.
type Label struct{ Name string }

// NotIn is the wildcard !S: matches any single label not in Set.
// An empty Set is the anywhere wildcard "_".
type NotIn struct{ Set []string }

// Concat is R₁·R₂·…·Rₙ.
type Concat struct{ Parts []Expr }

// Union is R₁+R₂+…+Rₙ.
type Union struct{ Alts []Expr }

// Star is R*.
type Star struct{ Sub Expr }

// Repeat is the sugared bounded repetition R{Min,Max}; Max < 0 means ∞.
// R? is R{0,1}, R⁺ is R{1,∞}.
type Repeat struct {
	Sub Expr
	Min int
	Max int // -1 for unbounded
}

func (Epsilon) isExpr() {}
func (Label) isExpr()   {}
func (NotIn) isExpr()   {}
func (Concat) isExpr()  {}
func (Union) isExpr()   {}
func (Star) isExpr()    {}
func (Repeat) isExpr()  {}

func (Epsilon) prec() int { return 3 }
func (Label) prec() int   { return 3 }
func (NotIn) prec() int   { return 3 }
func (Star) prec() int    { return 3 }
func (Repeat) prec() int  { return 3 }
func (Concat) prec() int  { return 2 }
func (Union) prec() int   { return 1 }

func renderChild(parent int, e Expr) string {
	s := e.String()
	if e.prec() < parent {
		return "(" + s + ")"
	}
	return s
}

func (Epsilon) String() string { return "()" }

func (l Label) String() string {
	if needsQuote(l.Name) {
		return "'" + labelEscaper.Replace(l.Name) + "'"
	}
	return l.Name
}

// labelEscaper writes a quoted label the way the lexer reads one: a
// backslash makes the next byte literal.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `'`, `\'`)

func needsQuote(s string) bool {
	if s == "" || s == "_" {
		return true
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9' && i > 0:
		default:
			return true
		}
	}
	return false
}

func (w NotIn) String() string {
	if len(w.Set) == 0 {
		return "_"
	}
	parts := make([]string, len(w.Set))
	for i, s := range w.Set {
		parts[i] = Label{Name: s}.String()
	}
	return "!{" + strings.Join(parts, ",") + "}"
}

func (c Concat) String() string {
	parts := make([]string, len(c.Parts))
	for i, p := range c.Parts {
		parts[i] = renderChild(2, p)
	}
	return strings.Join(parts, " ")
}

func (u Union) String() string {
	parts := make([]string, len(u.Alts))
	for i, a := range u.Alts {
		parts[i] = renderChild(2, a) // children of + render at concat level
	}
	return strings.Join(parts, " | ")
}

func (s Star) String() string { return renderChild(3, s.Sub) + "*" }

func (r Repeat) String() string {
	sub := renderChild(3, r.Sub)
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

// Convenience constructors.

// Eps returns ε.
func Eps() Expr { return Epsilon{} }

// L returns the label atom a.
func L(a string) Expr { return Label{Name: a} }

// Any returns the anywhere wildcard "_" (= !∅).
func Any() Expr { return NotIn{} }

// Not returns the wildcard !S.
func Not(labels ...string) Expr {
	set := append([]string(nil), labels...)
	sort.Strings(set)
	return NotIn{Set: set}
}

// Seq returns the concatenation of parts (ε when empty).
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
		panic("rpq: Alt needs at least one alternative")
	case 1:
		return alts[0]
	default:
		return Union{Alts: alts}
	}
}

// Kleene returns R*.
func Kleene(e Expr) Expr { return Star{Sub: e} }

// PlusOf returns R⁺ = R{1,∞}.
func PlusOf(e Expr) Expr { return Repeat{Sub: e, Min: 1, Max: -1} }

// Opt returns R? = R{0,1}.
func Opt(e Expr) Expr { return Repeat{Sub: e, Min: 0, Max: 1} }

// Between returns R{min,max}; max < 0 means unbounded.
func Between(e Expr, min, max int) Expr { return Repeat{Sub: e, Min: min, Max: max} }

// Desugar expands Repeat nodes into the core grammar
// (ε, Label, NotIn, Concat, Union, Star). The result contains no Repeat.
func Desugar(e Expr) Expr {
	switch n := e.(type) {
	case Epsilon, Label, NotIn:
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
			panic(fmt.Sprintf("rpq: invalid repetition {%d,%d}", n.Min, n.Max))
		default:
			// (sub?)^(max-min), nested to share structure:
			// sub? sub? … — expanded as Union(ε, sub) repeated.
			opt := Union{Alts: []Expr{Epsilon{}, sub}}
			for i := n.Min; i < n.Max; i++ {
				parts = append(parts, opt)
			}
		}
		return Seq(parts...)
	default:
		panic(fmt.Sprintf("rpq: unknown expression type %T", e))
	}
}

// Size returns the syntactic size of the expression (number of AST nodes),
// the size measure used when comparing automata to expressions (E22).
func Size(e Expr) int {
	switch n := e.(type) {
	case Epsilon, Label, NotIn:
		return 1
	case Concat:
		s := 1
		for _, p := range n.Parts {
			s += Size(p)
		}
		return s
	case Union:
		s := 1
		for _, a := range n.Alts {
			s += Size(a)
		}
		return s
	case Star:
		return 1 + Size(n.Sub)
	case Repeat:
		return 1 + Size(n.Sub)
	default:
		panic(fmt.Sprintf("rpq: unknown expression type %T", e))
	}
}

// Positions bounds the number of Glushkov positions e compiles to once its
// repetitions are unrolled (Desugar: Min copies and a star, or Max copies),
// saturating at limit — what a caller checks before compiling text it did
// not write: `a*++++++++++++` is 4 096 positions from 14 bytes. ε is counted
// as one: it becomes no automaton state, but a repetition unrolls it like
// anything else, and `(){1,4000000000}` must not pass as empty.
func Positions(e Expr, limit int) int {
	n := 0
	switch e := e.(type) {
	case Epsilon, Label, NotIn:
		n = 1
	case Concat:
		for _, p := range e.Parts {
			n += Positions(p, limit)
		}
	case Union:
		for _, a := range e.Alts {
			n += Positions(a, limit)
		}
	case Star:
		n = Positions(e.Sub, limit)
	case Repeat:
		// Counts are clamped first: the parser accepts any integer, and the
		// product must not wrap.
		n = Positions(e.Sub, limit) * max(min(e.Min, limit)+1, min(e.Max, limit))
	}
	if n < 0 || n > limit {
		return limit
	}
	return n
}

// MaxPositions is the largest automaton, in Glushkov positions, a query that
// arrives from outside may ask for. Compilation is quadratic in positions —
// 512 of them under nested stars are 260 000 transitions and 30 ms, 4 096
// are 16 million and 14 s — and every product built on the automaton is
// |N| times as large again; hand-written queries have a few dozen.
const MaxPositions = 512

// ErrTooLarge is wrapped by the error CheckPositions returns.
var ErrTooLarge = errors.New("rpq: expression too large")

// CheckPositions is what every served path asks before it compiles text it
// did not write: an error naming the count and the bound when e would
// compile to more than MaxPositions positions.
func CheckPositions(e Expr) error {
	return PositionsError(Positions(e, 1<<30))
}

// PositionsError is CheckPositions for a count taken elsewhere — twoway has
// its own syntax tree over the same automata.
func PositionsError(n int) error {
	if n <= MaxPositions {
		return nil
	}
	return fmt.Errorf("%w: it unrolls to %d automaton positions, the bound is %d", ErrTooLarge, n, MaxPositions)
}

// Labels returns the sorted set of labels mentioned in e (including in
// wildcard exception sets).
func Labels(e Expr) []string {
	set := map[string]struct{}{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch n := e.(type) {
		case Label:
			set[n.Name] = struct{}{}
		case NotIn:
			for _, s := range n.Set {
				set[s] = struct{}{}
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
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
