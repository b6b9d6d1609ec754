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
	p := &fragParser{src: input}
	alts, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.src) {
		return nil, p.errf("trailing input %q", p.src[p.pos:])
	}
	return automata.Alt(alts...), nil
}

// MustParse is Parse for tests and literals; it panics on error.
func MustParse(input string) Pattern {
	p, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return p
}

type fragParser struct {
	src   string
	pos   int
	depth int // union groups open around the current position
}

func (p *fragParser) errf(format string, args ...any) error {
	return fmt.Errorf("cypherfrag: parse error at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

// parts refuses a row of n parts past rpq.MaxPositions.
func (p *fragParser) parts(n int) error {
	if err := rpq.PartsError(n); err != nil {
		return fmt.Errorf("cypherfrag: parse error at offset %d: %w", p.pos, err)
	}
	return nil
}

func (p *fragParser) ws() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

// parseUnion reads concatenations separated by '+', up to the end of the
// input or a ')'.
func (p *fragParser) parseUnion() ([]Pattern, error) {
	var alts []Pattern
	for {
		alt, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		alts = append(alts, alt)
		if err := p.parts(len(alts)); err != nil {
			return nil, err
		}
		if p.pos >= len(p.src) || p.src[p.pos] != '+' {
			return alts, nil
		}
		p.pos++
	}
}

// parseConcat handles juxtaposition: a sequence of atoms or parenthesized
// unions.
func (p *fragParser) parseConcat() (Pattern, error) {
	var parts []Pattern
	for {
		p.ws()
		if p.pos >= len(p.src) || p.src[p.pos] == '+' || p.src[p.pos] == ')' {
			break
		}
		atom, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		parts = append(parts, atom)
		if err := p.parts(len(parts)); err != nil {
			return nil, err
		}
	}
	if len(parts) == 0 {
		return nil, p.errf("expected a pattern")
	}
	return automata.Seq(parts...), nil
}

func (p *fragParser) parseAtom() (Pattern, error) {
	if strings.HasPrefix(p.src[p.pos:], "(") {
		// (π₁ + π₂ + …): union group, refused past rpq.MaxNesting before the
		// parser descends into it.
		if p.depth++; p.depth > rpq.MaxNesting {
			return nil, p.errf("groups nest %d deep; the bound is %d", p.depth, rpq.MaxNesting)
		}
		p.pos++
		alts, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		if len(alts) < 2 {
			return nil, p.errf("expected '+' in union group")
		}
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return nil, p.errf("expected ')'")
		}
		p.pos++
		p.depth--
		return automata.Alt(alts...), nil
	}
	if !strings.HasPrefix(p.src[p.pos:], "-[:") {
		return nil, p.errf("expected '-[:' or '('")
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
			return nil, p.errf("expected a label")
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
			return nil, p.errf("expected ')*' after starred disjunction")
		}
		p.pos += len(")*")
	}
	if !strings.HasPrefix(p.src[p.pos:], "]->") {
		return nil, p.errf("expected ']->'")
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
