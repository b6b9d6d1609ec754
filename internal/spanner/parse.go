package spanner

import (
	"fmt"

	"graphquery/internal/rpq"
)

// Parse reads the textual form of a regex formula — the same syntax String
// renders:
//
//	a b 0 _            literal bytes (identifier characters and most others)
//	.                  any single byte
//	\w                 word byte [A-Za-z0-9_]
//	(e₁|…|eₙ)          grouping / union
//	e*  e+             repetition (postfix)
//	x{e}               capture: bind variable x to the span matched by e
//
// Concatenation is juxtaposition. An identifier immediately followed by
// '{' is a capture variable; otherwise identifier characters are literal
// bytes.
func Parse(input string) (Expr, error) {
	p := &spanParser{src: input}
	e, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.src) {
		return nil, p.errf("trailing input %q", p.src[p.pos:])
	}
	return e, nil
}

// MustParse is Parse for tests and literals; it panics on error.
func MustParse(input string) Expr {
	e, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return e
}

type spanParser struct {
	src string
	pos int
	// lit ends an identifier run already found not to name a capture: its
	// bytes are literals, and the run is scanned once, not once per byte.
	lit   int
	depth int // groups and captures open around pos
	nest  int // groups, captures and repetitions on the deepest path of the formula parsed last
}

// tooDeep is the refusal of a formula that nests past rpq.MaxNesting.
func (p *spanParser) tooDeep(nest int) error {
	return p.errf("groups and repetitions nest %d deep; the bound is %d", nest, rpq.MaxNesting)
}

// open enters one more group or capture, refusing it past rpq.MaxNesting;
// close leaves it once its closing byte is read.
func (p *spanParser) open() error {
	if p.depth++; p.depth > rpq.MaxNesting {
		return p.tooDeep(p.depth)
	}
	return nil
}

func (p *spanParser) close() {
	p.pos++
	p.depth--
	p.nest++
}

func (p *spanParser) errf(format string, args ...any) error {
	return fmt.Errorf("spanner: parse error at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *spanParser) parseUnion() (Expr, error) {
	first, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	alts, nest := []Expr{first}, p.nest
	for p.pos < len(p.src) && p.src[p.pos] == '|' {
		p.pos++
		next, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		alts, nest = append(alts, next), max(nest, p.nest)
	}
	p.nest = nest
	return Alt(alts...), nil
}

func (p *spanParser) parseConcat() (Expr, error) {
	var parts []Expr
	nest := 0
	for p.pos < len(p.src) && p.src[p.pos] != '|' && p.src[p.pos] != ')' && p.src[p.pos] != '}' {
		f, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		parts, nest = append(parts, f), max(nest, p.nest)
	}
	p.nest = nest
	return Seq(parts...), nil
}

func (p *spanParser) parseFactor() (Expr, error) {
	atom, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for nest := p.nest; ; nest++ {
		if nest > rpq.MaxNesting {
			return nil, p.tooDeep(nest)
		}
		p.nest = nest
		if p.pos == len(p.src) {
			return atom, nil
		}
		switch p.src[p.pos] {
		case '*':
			p.pos++
			atom = Star(atom)
		case '+':
			p.pos++
			atom = Plus(atom)
		default:
			return atom, nil
		}
	}
}

func (p *spanParser) parseAtom() (Expr, error) {
	c := p.src[p.pos]
	p.nest = 0 // a leaf's; a group or capture counts its own
	switch {
	case c == '(':
		if err := p.open(); err != nil {
			return nil, err
		}
		p.pos++
		e, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return nil, p.errf("expected ')'")
		}
		p.close()
		return e, nil
	case c == '.':
		p.pos++
		return Dot(), nil
	case c == '\\':
		if p.pos+1 < len(p.src) && p.src[p.pos+1] == 'w' {
			p.pos += 2
			return Word(), nil
		}
		if p.pos+1 < len(p.src) {
			// Escaped literal: \* \. \( etc.
			ch := p.src[p.pos+1]
			p.pos += 2
			return Char{C: ch}, nil
		}
		return nil, p.errf("dangling '\\'")
	case p.pos < p.lit:
		p.pos++
		return Char{C: c}, nil
	case isIdentByte(c):
		// Maximal identifier run followed by '{' is a capture variable;
		// otherwise a single literal byte.
		end := p.pos
		for end < len(p.src) && isIdentByte(p.src[end]) {
			end++
		}
		if end < len(p.src) && p.src[end] == '{' {
			name := p.src[p.pos:end]
			if err := p.open(); err != nil {
				return nil, err
			}
			p.pos = end + 1
			sub, err := p.parseUnion()
			if err != nil {
				return nil, err
			}
			if p.pos >= len(p.src) || p.src[p.pos] != '}' {
				return nil, p.errf("expected '}' closing capture %s", name)
			}
			p.close()
			return Cap(name, sub), nil
		}
		p.lit = end
		p.pos++
		return Char{C: c}, nil
	case c == '*' || c == '+' || c == '{':
		return nil, p.errf("unexpected %q", string(c))
	default:
		// Any other byte (space, punctuation) is a literal.
		p.pos++
		return Char{C: c}, nil
	}
}

func isIdentByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
