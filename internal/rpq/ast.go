// Package rpq implements regular path queries (Section 3.1.1): a regular
// expression AST over edge labels with the !S wildcards of Remark 11, a
// parser for a textual syntax, algebraic simplification, and the Glushkov
// translation to ε-free NFAs that underpins the product-construction
// evaluation of Section 6.2. Its parser (Syntax) and its position bound
// (CheckPositions, MaxNesting) serve the languages above it in the tower
// too: 2RPQs and ℓ-RPQs are read by the same parser with their own atoms.
package rpq

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"graphquery/internal/automata"
)

// lang is the RPQ tag type: it groups with round brackets and writes ε as
// "()".
type lang struct{}

func (lang) Notation() automata.Notation {
	return automata.Notation{Open: "(", Close: ")", Epsilon: "()", Seq: " ", Or: " | "}
}

// Expr is a node of the RPQ regular-expression AST.
//
// The core grammar (Section 3.1.1) is ε, labels, concatenation, disjunction,
// and Kleene star; R? and R⁺ and bounded repetition R{n,m} are provided as
// syntax and unrolled by the compiler. Wildcards !S (Remark 11) are base
// expressions matching any label outside the finite set S; the anywhere
// wildcard "_" is !∅. Everything but the atoms is the shared
// regular-expression core of package automata.
type Expr = automata.Expr[lang]

type (
	// Epsilon is the ε base case.
	Epsilon = automata.Epsilon[lang]
	// Concat is R₁·R₂·…·Rₙ.
	Concat = automata.Concat[lang]
	// Union is R₁+R₂+…+Rₙ.
	Union = automata.Alternation[lang]
	// Star is R*.
	Star = automata.Star[lang]
	// Repeat is the sugared bounded repetition R{Min,Max}; Max < 0 means
	// ∞. R? is R{0,1}, R⁺ is R{1,∞}.
	Repeat = automata.Repeat[lang]
)

// Label matches exactly one edge with the given label.
type Label struct{ Name string }

// NotIn is the wildcard !S: matches any single label not in Set.
// An empty Set is the anywhere wildcard "_".
type NotIn struct{ Set []string }

func (Label) Language() lang { return lang{} }
func (NotIn) Language() lang { return lang{} }

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
func Seq(parts ...Expr) Expr { return automata.Seq(parts...) }

// Alt returns the disjunction of alternatives.
func Alt(alts ...Expr) Expr { return automata.Alt(alts...) }

// Kleene returns R*.
func Kleene(e Expr) Expr { return Star{Sub: e} }

// PlusOf returns R⁺ = R{1,∞}.
func PlusOf(e Expr) Expr { return Repeat{Sub: e, Min: 1, Max: -1} }

// Between returns R{min,max}; max < 0 means unbounded.
func Between(e Expr, min, max int) Expr { return Repeat{Sub: e, Min: min, Max: max} }

// Desugar expands Repeat nodes into the core grammar
// (ε, Label, NotIn, Concat, Union, Star). The result contains no Repeat.
func Desugar(e Expr) Expr { return automata.Unroll(e) }

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
// repetitions are unrolled (Min copies and a star, or Max copies),
// saturating at limit — what a caller checks before compiling text it did
// not write: `a*++++++++++++` is 4 096 positions from 14 bytes. It counts an
// expression of any language of the tower: every atom is one position. ε
// is counted as one too: it becomes no automaton state, but a repetition
// unrolls it like anything else, and `(){1,4000000000}` must not pass as
// empty.
func Positions[L automata.Language](e automata.Expr[L], limit int) int {
	n := 0
	switch e := e.(type) {
	case automata.Concat[L]:
		for _, p := range e.Parts {
			n += Positions(p, limit)
		}
	case automata.Alternation[L]:
		for _, a := range e.Alts {
			n += Positions(a, limit)
		}
	case automata.Star[L]:
		n = Positions(e.Sub, limit)
	case automata.Repeat[L]:
		// Counts are clamped first: the parser accepts any integer, and the
		// product must not wrap.
		n = Positions(e.Sub, limit) * max(min(e.Min, limit)+1, min(e.Max, limit))
	default:
		n = 1
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
// did not write: an error naming the count and the bound when e — an RPQ,
// 2RPQ, ℓ-RPQ or dl-RPQ — would compile to more than MaxPositions
// positions.
func CheckPositions[L automata.Language](e automata.Expr[L]) error {
	return PositionsError(Positions(e, 1<<30))
}

// PositionsError is CheckPositions for a count taken elsewhere — spanner
// formulas are counted over the characters of a document.
func PositionsError(n int) error {
	if n <= MaxPositions {
		return nil
	}
	return fmt.Errorf("%w: it unrolls to %d automaton positions, the bound is %d", ErrTooLarge, n, MaxPositions)
}

// PartsError is what a pattern parser asks as it reads a concatenation or
// union: each part compiles to at least one position, so a row of more
// than MaxPositions parts is one CheckPositions would refuse, found without
// reading the rest of the text.
func PartsError(n int) error {
	if n <= MaxPositions {
		return nil
	}
	return fmt.Errorf("%w: a row of %d parts compiles to at least as many automaton positions, the bound is %d", ErrTooLarge, n, MaxPositions)
}

// Labels returns the sorted set of labels mentioned in e (including in
// wildcard exception sets).
func Labels(e Expr) []string {
	return automata.Names(e, func(a Expr) []string {
		if w, ok := a.(NotIn); ok {
			return w.Set
		}
		return []string{a.(Label).Name}
	})
}
