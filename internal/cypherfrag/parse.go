package cypherfrag

import (
	"fmt"
	"strings"

	"graphquery/internal/automata"
	"graphquery/internal/rpq"
)

// Parse reads the textual form of a Cypher-fragment pattern — the same
// syntax String renders:
//
//	-[:a|b]->        edge whose label is in the disjunction
//	-[:(a|b)*]->     starred label disjunction
//	π₁ π₂            concatenation (juxtaposition)
//	π₁ + π₂          union, binding looser than concatenation; a group
//	(π₁ + π₂ + …)    holds a union of two or more branches
//
// so Parse(p.String()) reproduces p up to label ordering (disjunction
// labels are canonicalized by the constructors). A text nesting groups past
// rpq.MaxNesting, or with a concatenation or union of more than
// rpq.MaxPositions parts (rpq.PartsError), is refused as soon as the parser
// gets there.
func Parse(input string) (Pattern, error) {
	return rpq.Read[lang](&fragParser{src: input}, rpq.TokEnd)
}

// MustParse is Parse for tests and literals; it panics on error.
func MustParse(input string) Pattern {
	p, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return p
}

// fragParser is the fragment's lexer, read by rpq.Read: its atoms are the
// two edge forms and the union group, whose body the reader reads
// (Nested); '+' separates alternatives.
type fragParser struct {
	src string
	pos int
}

func (p *fragParser) Errorf(format string, args ...any) error {
	return fmt.Errorf("cypherfrag: parse error at offset %d: "+format, append([]any{p.pos}, args...)...)
}

func (p *fragParser) Got() string {
	if p.pos >= len(p.src) {
		return "end of input"
	}
	return fmt.Sprintf("%q", p.src[p.pos:p.pos+1])
}

func (p *fragParser) Peek() rpq.Token {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
	switch {
	case p.pos == len(p.src):
		return rpq.TokEnd
	case p.src[p.pos] == '+':
		return rpq.TokOr
	case p.src[p.pos] == ')':
		return rpq.TokClose
	}
	return rpq.TokAtom
}

// Skip consumes the '+' or ')' ahead.
func (p *fragParser) Skip() { p.pos++ }

// Count is never asked for: the fragment has no counts.
func (p *fragParser) Count() (int, int, error) { return 0, 0, p.Errorf("unexpected count") }

func (p *fragParser) Empty(bool) bool { return false }

func (p *fragParser) Atom(r *rpq.Reader[lang]) (Pattern, error) {
	if p.src[p.pos] == '(' {
		// (π₁ + π₂ + …): a union group of two branches or more.
		p.pos++
		alts, err := r.Nested(1, func() error {
			if p.Peek() != rpq.TokClose {
				return p.Errorf("expected ')'")
			}
			p.pos++
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(alts) < 2 {
			return nil, p.Errorf("expected '+' in union group")
		}
		return automata.Alt(alts...), nil
	}
	if !strings.HasPrefix(p.src[p.pos:], "-[:") {
		return nil, p.Errorf("expected '-[:' or '('")
	}
	p.pos += len("-[:")
	starred := false
	if p.pos < len(p.src) && p.src[p.pos] == '(' {
		starred = true
		p.pos++
	}
	var labels []string
	for {
		l := p.ident()
		if l == "" {
			return nil, p.Errorf("expected a label")
		}
		labels = append(labels, l)
		if p.pos < len(p.src) && p.src[p.pos] == '|' {
			p.pos++
			continue
		}
		break
	}
	if starred {
		if !strings.HasPrefix(p.src[p.pos:], ")*") {
			return nil, p.Errorf("expected ')*' after starred disjunction")
		}
		p.pos += len(")*")
	}
	if !strings.HasPrefix(p.src[p.pos:], "]->") {
		return nil, p.Errorf("expected ']->'")
	}
	p.pos += len("]->")
	if starred {
		return StarOf(labels...), nil
	}
	return Edge(labels...), nil
}

func (p *fragParser) ident() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			p.pos++
			continue
		}
		break
	}
	return p.src[start:p.pos]
}
