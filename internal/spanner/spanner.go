// Package spanner implements document spanners (Fagin, Kimelfeld, Reiss,
// Vansummeren, J.ACM 2015), the information-extraction formalism Section
// 6.3 of the paper connects ℓ-RPQs to: regex formulas with capture
// variables evaluated over strings, producing mappings from variables to
// spans. Capture variables "annotate positions" — the same mechanism that
// makes ℓ-RPQ list variables automata-compatible — as opposed to registers,
// which change the complexity landscape (Section 1, Example 2 discussion).
package spanner

import (
	"fmt"
	"sort"
	"strings"

	"graphquery/internal/automata"
	"graphquery/internal/pg"
)

// Span is a half-open interval [Start, End) of byte positions in the
// document.
type Span struct {
	Start int
	End   int
}

func (s Span) String() string { return fmt.Sprintf("[%d,%d⟩", s.Start, s.End) }

// Match maps capture variables to spans.
type Match map[string]Span

func (m Match) key() string {
	vars := make([]string, 0, len(m))
	for v := range m {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var b strings.Builder
	for _, v := range vars {
		fmt.Fprintf(&b, "%s=%d-%d;", v, m[v].Start, m[v].End)
	}
	return b.String()
}

// lang is the spanner tag type: a formula groups with round brackets,
// writes ε as "()" and juxtaposes the parts of a concatenation.
type lang struct{}

func (lang) Notation() automata.Notation {
	return automata.Notation{Open: "(", Close: ")", Epsilon: "()", Seq: "", Or: "|"}
}

// Expr is a regex formula with capture variables: a regular expression
// over the byte atoms Char, Any and ClassFn, on the core the RPQ tower
// shares (package automata), with one node of its own, Capture. e⁺ is the
// core's Repeat{1,∞}, one node, so that a formula's size stays linear in
// its text: `a*++++` names its operand once.
type Expr = automata.Expr[lang]

// Char matches one literal byte.
type Char struct{ C byte }

// Any matches any single byte (".").
type Any struct{}

// ClassFn matches a single byte satisfying a predicate; Name is used for
// rendering (e.g. "\\w").
type ClassFn struct {
	Name string
	Fn   func(byte) bool
}

// Capture is x{e}: matches e and binds variable X to the matched span. It
// is to the core what a list variable is to an ℓ-RPQ's atoms: it marks
// positions and leaves the language alone (Section 6.3).
type Capture struct {
	X   string
	Sub Expr
}

func (Char) Language() lang    { return lang{} }
func (Any) Language() lang     { return lang{} }
func (ClassFn) Language() lang { return lang{} }
func (Capture) Language() lang { return lang{} }

// String renders the byte so that Parse reads it back: the bytes the
// syntax uses are escaped with a backslash.
func (e Char) String() string {
	s := string([]byte{e.C})
	if strings.Contains(`\()|*+{}.`, s) {
		return `\` + s
	}
	return s
}
func (Any) String() string       { return "." }
func (e ClassFn) String() string { return e.Name }

// String brackets the capture: right after an identifier byte, x{…} would
// read that byte as part of its name.
func (e Capture) String() string { return "(" + e.X + "{" + e.Sub.String() + "})" }

// Constructors.

// Lit returns the concatenation of literal bytes of s.
func Lit(s string) Expr {
	parts := make([]Expr, len(s))
	for i := 0; i < len(s); i++ {
		parts[i] = Char{C: s[i]}
	}
	return Seq(parts...)
}

// Dot returns ".".
func Dot() Expr { return Any{} }

// Class returns a named character class.
func Class(name string, fn func(byte) bool) Expr { return ClassFn{Name: name, Fn: fn} }

// Word matches a single word byte [A-Za-z0-9_].
func Word() Expr { return Class("\\w", isIdentByte) }

// Seq returns the concatenation.
func Seq(parts ...Expr) Expr { return automata.Seq(parts...) }

// Alt returns the disjunction.
func Alt(alts ...Expr) Expr { return automata.Alt(alts...) }

// Star returns e*.
func Star(e Expr) Expr { return automata.Star[lang]{Sub: e} }

// Plus returns e⁺.
func Plus(e Expr) Expr { return automata.Repeat[lang]{Sub: e, Min: 1, Max: -1} }

// Cap returns x{e}.
func Cap(x string, e Expr) Expr { return Capture{X: x, Sub: e} }

// Vars returns the sorted capture variables of e.
func Vars(e Expr) []string {
	return automata.Names(e, func(a Expr) []string {
		if c, ok := a.(Capture); ok {
			return append([]string{c.X}, Vars(c.Sub)...)
		}
		return nil
	})
}

// partial is an intermediate result: the end position reached and the
// bindings accumulated so far.
type partial struct {
	end int
	m   Match
}

// Evaluate computes the spanner's result on doc: all mappings produced by
// runs of e over the *entire* document (the standard Boolean-combined
// semantics; embed e in .*e.* style expressions for substring extraction —
// see Extract). Results are deduplicated.
func Evaluate(doc string, e Expr) []Match {
	out, _ := EvaluateMeter(doc, e, nil)
	return out
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].key() < ms[j].key() })
}

// Extract is the common extraction idiom: evaluates .* e .* over the
// document and returns all capture mappings.
func Extract(doc string, e Expr) []Match {
	pad := Star(Dot())
	return Evaluate(doc, Seq(pad, e, pad))
}

// evalMeter is the capture-propagating recursion, metered: every partial
// considered ticks the shared Ticker (amortized against the states budget
// every pg.CheckInterval), so cancellation and budgets land inside the
// recursion, not just between top-level calls. A repetition runs as its
// unrolling: e⁺ as e e*.
func evalMeter(doc string, e Expr, pos int, t *pg.Ticker) ([]partial, error) {
	if _, ok := e.(automata.Repeat[lang]); ok {
		e = automata.Unroll(e)
	}
	if err := t.Step(); err != nil {
		return nil, err
	}
	switch n := e.(type) {
	case automata.Epsilon[lang]:
		return []partial{{end: pos, m: Match{}}}, nil
	case Char:
		if pos < len(doc) && doc[pos] == n.C {
			return []partial{{end: pos + 1, m: Match{}}}, nil
		}
		return nil, nil
	case Any:
		if pos < len(doc) {
			return []partial{{end: pos + 1, m: Match{}}}, nil
		}
		return nil, nil
	case ClassFn:
		if pos < len(doc) && n.Fn(doc[pos]) {
			return []partial{{end: pos + 1, m: Match{}}}, nil
		}
		return nil, nil
	case automata.Concat[lang]:
		cur := []partial{{end: pos, m: Match{}}}
		for _, part := range n.Parts {
			var next []partial
			for _, c := range cur {
				ds, err := evalMeter(doc, part, c.end, t)
				if err != nil {
					return nil, err
				}
				for _, d := range ds {
					if err := t.Step(); err != nil {
						return nil, err
					}
					merged, ok := mergeMatches(c.m, d.m)
					if !ok {
						continue
					}
					next = append(next, partial{end: d.end, m: merged})
				}
			}
			cur = dedupPartials(next)
			if len(cur) == 0 {
				return nil, nil
			}
		}
		return cur, nil
	case automata.Alternation[lang]:
		var out []partial
		for _, a := range n.Alts {
			ds, err := evalMeter(doc, a, pos, t)
			if err != nil {
				return nil, err
			}
			out = append(out, ds...)
		}
		return dedupPartials(out), nil
	case automata.Star[lang]:
		out := []partial{{end: pos, m: Match{}}}
		frontier := out
		seen := map[string]struct{}{outKey(out[0]): {}}
		for len(frontier) > 0 {
			var next []partial
			for _, c := range frontier {
				ds, err := evalMeter(doc, n.Sub, c.end, t)
				if err != nil {
					return nil, err
				}
				for _, d := range ds {
					if err := t.Step(); err != nil {
						return nil, err
					}
					if d.end == c.end {
						continue // ε-iterations do not add new results
					}
					merged, ok := mergeMatches(c.m, d.m)
					if !ok {
						continue
					}
					p := partial{end: d.end, m: merged}
					k := outKey(p)
					if _, dup := seen[k]; dup {
						continue
					}
					seen[k] = struct{}{}
					next = append(next, p)
				}
			}
			out = append(out, next...)
			frontier = next
		}
		return out, nil
	case Capture:
		ds, err := evalMeter(doc, n.Sub, pos, t)
		if err != nil {
			return nil, err
		}
		var out []partial
		for _, d := range ds {
			if err := t.Step(); err != nil {
				return nil, err
			}
			mm := Match{}
			for v, s := range d.m {
				mm[v] = s
			}
			if _, dup := mm[n.X]; dup {
				continue // a variable may be bound once per run
			}
			mm[n.X] = Span{Start: pos, End: d.end}
			out = append(out, partial{end: d.end, m: mm})
		}
		return out, nil
	default:
		panic(fmt.Sprintf("spanner: unknown expression %T", e))
	}
}

func outKey(p partial) string { return fmt.Sprintf("%d|%s", p.end, p.m.key()) }

func dedupPartials(ps []partial) []partial {
	seen := map[string]struct{}{}
	out := ps[:0]
	for _, p := range ps {
		k := outKey(p)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, p)
	}
	return out
}

// mergeMatches refuses conflicting rebinding of a variable (the functional
// spanner discipline: each variable captures exactly one span per run).
func mergeMatches(a, b Match) (Match, bool) {
	if len(a) == 0 {
		return b, true
	}
	if len(b) == 0 {
		return a, true
	}
	out := Match{}
	for v, s := range a {
		out[v] = s
	}
	for v, s := range b {
		if prev, dup := out[v]; dup && prev != s {
			return nil, false
		}
		out[v] = s
	}
	return out, true
}
